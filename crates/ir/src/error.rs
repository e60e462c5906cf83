//! Error types shared across the IR crate — and, through
//! [`TybecError`], the whole pipeline.
//!
//! Two layers:
//!
//! * [`IrError`] — the IR crate's own error: lexing, parsing,
//!   validation, name resolution, unsupported configurations. Kept as a
//!   plain enum so parser tests can match on variants.
//! * [`TybecError`] — the structured, categorized error every later
//!   stage (estimator, simulator, search, CLI) speaks. It carries an
//!   [`ErrorCategory`] (which the CLI maps to a distinct exit code), an
//!   optional source [`Span`] and a message (`?` on an `IrError` inside
//!   an estimator pass produces a `TybecError` with the span and
//!   category preserved).

use crate::diag::Span;
use std::fmt;

/// Any error raised while parsing, building or validating TyTra-IR.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IrError {
    /// Lexical error in a `.tirl` source: unexpected character.
    Lex {
        /// 1-based line number.
        line: u32,
        /// 1-based column number.
        col: u32,
        /// Human-readable description.
        msg: String,
    },
    /// Syntactic error in a `.tirl` source.
    Parse {
        /// 1-based line number.
        line: u32,
        /// 1-based column number.
        col: u32,
        /// Human-readable description.
        msg: String,
    },
    /// Semantic error found by [`crate::validate()`][crate::validate::validate].
    Validate(String),
    /// A name lookup failed (function, memory object, stream, value).
    Unknown {
        /// What kind of entity was looked up (e.g. `"function"`).
        kind: &'static str,
        /// The name that failed to resolve.
        name: String,
    },
    /// The design uses a function-nesting pattern outside the supported
    /// configuration set of Fig 7.
    UnsupportedConfig(String),
}

impl fmt::Display for IrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IrError::Lex { line, col, msg } => {
                write!(f, "lexical error at {line}:{col}: {msg}")
            }
            IrError::Parse { line, col, msg } => {
                write!(f, "parse error at {line}:{col}: {msg}")
            }
            IrError::Validate(msg) => write!(f, "validation error: {msg}"),
            IrError::Unknown { kind, name } => write!(f, "unknown {kind}: `{name}`"),
            IrError::UnsupportedConfig(msg) => {
                write!(f, "unsupported configuration: {msg}")
            }
        }
    }
}

impl std::error::Error for IrError {}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, IrError>;

/// What stage of the pipeline an error belongs to.
///
/// Categories are coarse on purpose: they are the CLI's exit-code
/// vocabulary (`tybec` exits with [`exit_code`][ErrorCategory::exit_code]
/// when a command fails with a `TybecError`), and the fuzz harness's
/// crash-triage buckets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorCategory {
    /// Lexical error in a `.tirl` source.
    Lex,
    /// Syntactic error in a `.tirl` source.
    Parse,
    /// Semantic validation failure.
    Validate,
    /// Function-nesting pattern outside the supported Fig 7 set, or a
    /// failed name lookup while extracting the configuration tree.
    Config,
    /// Cost-model failure (schedule, resource, clock, throughput).
    Estimate,
    /// Synthesis-emulator or cycle-simulator failure, including
    /// degenerate numeric inputs (zero frequency, zero bandwidth).
    Sim,
    /// Design-space search failure.
    Search,
    /// Filesystem or OS error.
    Io,
    /// A bug: an invariant the pipeline promised to hold was violated
    /// (e.g. a caught panic inside a worker).
    Internal,
}

impl ErrorCategory {
    /// Stable lower-case label used in rendered messages.
    pub fn label(self) -> &'static str {
        match self {
            ErrorCategory::Lex => "lex",
            ErrorCategory::Parse => "parse",
            ErrorCategory::Validate => "validate",
            ErrorCategory::Config => "config",
            ErrorCategory::Estimate => "estimate",
            ErrorCategory::Sim => "sim",
            ErrorCategory::Search => "search",
            ErrorCategory::Io => "io",
            ErrorCategory::Internal => "internal",
        }
    }

    /// The process exit code `tybec` uses for a failure in this
    /// category. Distinct per category; 1 stays reserved for usage
    /// errors and lint policy failures.
    pub fn exit_code(self) -> u8 {
        match self {
            ErrorCategory::Lex => 2,
            ErrorCategory::Parse => 2,
            ErrorCategory::Validate => 3,
            ErrorCategory::Config => 4,
            ErrorCategory::Estimate => 5,
            ErrorCategory::Sim => 6,
            ErrorCategory::Search => 7,
            ErrorCategory::Io => 8,
            ErrorCategory::Internal => 10,
        }
    }
}

impl fmt::Display for ErrorCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The pipeline-wide structured error: category + optional span +
/// message.
///
/// Constructed directly by estimator/simulator/search code, or via
/// `From<IrError>` (which preserves parse positions as spans), so any
/// `fn() -> Result<_, TybecError>` can `?` on IR-layer results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TybecError {
    /// Which pipeline stage failed.
    pub category: ErrorCategory,
    /// Source position, when the failure traces back to a `.tirl` line.
    pub span: Option<Span>,
    /// Human-readable description.
    pub message: String,
}

impl TybecError {
    /// A new error in `category` with no span.
    pub fn new(category: ErrorCategory, message: impl Into<String>) -> TybecError {
        TybecError { category, span: None, message: message.into() }
    }

    /// A simulator-stage error.
    pub fn sim(message: impl Into<String>) -> TybecError {
        TybecError::new(ErrorCategory::Sim, message)
    }

    /// Attach a source span.
    pub fn with_span(mut self, span: Span) -> TybecError {
        self.span = Some(span);
        self
    }
}

impl fmt::Display for TybecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} error", self.category)?;
        if let Some(s) = self.span {
            write!(f, " at {s}")?;
        }
        write!(f, ": {}", self.message)
    }
}

impl std::error::Error for TybecError {}

impl From<IrError> for TybecError {
    fn from(e: IrError) -> TybecError {
        match e {
            IrError::Lex { line, col, msg } => {
                TybecError::new(ErrorCategory::Lex, msg).with_span(Span { line, col })
            }
            IrError::Parse { line, col, msg } => {
                TybecError::new(ErrorCategory::Parse, msg).with_span(Span { line, col })
            }
            IrError::Validate(msg) => TybecError::new(ErrorCategory::Validate, msg),
            IrError::Unknown { kind, name } => {
                TybecError::new(ErrorCategory::Config, format!("unknown {kind}: `{name}`"))
            }
            IrError::UnsupportedConfig(msg) => TybecError::new(ErrorCategory::Config, msg),
        }
    }
}

impl From<std::io::Error> for TybecError {
    fn from(e: std::io::Error) -> TybecError {
        TybecError::new(ErrorCategory::Io, e.to_string())
    }
}

/// Result alias for pipeline stages downstream of the IR.
pub type TybecResult<T> = std::result::Result<T, TybecError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_informative() {
        let e = IrError::Lex { line: 3, col: 7, msg: "bad char `$`".into() };
        assert_eq!(e.to_string(), "lexical error at 3:7: bad char `$`");
        let e = IrError::Parse { line: 1, col: 1, msg: "expected `define`".into() };
        assert!(e.to_string().contains("expected `define`"));
        let e = IrError::Unknown { kind: "function", name: "f9".into() };
        assert_eq!(e.to_string(), "unknown function: `f9`");
        let e = IrError::Validate("dup".into());
        assert!(e.to_string().starts_with("validation error"));
        let e = IrError::UnsupportedConfig("par inside par".into());
        assert!(e.to_string().contains("par inside par"));
    }

    #[test]
    fn errors_are_comparable() {
        let a = IrError::Validate("x".into());
        let b = IrError::Validate("x".into());
        assert_eq!(a, b);
    }

    #[test]
    fn tybec_error_preserves_parse_spans() {
        let e: TybecError = IrError::Parse { line: 4, col: 9, msg: "bad".into() }.into();
        assert_eq!(e.category, ErrorCategory::Parse);
        assert_eq!(e.span, Some(Span { line: 4, col: 9 }));
        assert_eq!(e.to_string(), "parse error at 4:9: bad");
    }

    #[test]
    fn exit_codes_are_distinct_per_category() {
        use ErrorCategory::*;
        // Lex and Parse intentionally share a code (both are "the input
        // did not parse"); everything else is distinct and nonzero.
        let cats = [Parse, Validate, Config, Estimate, Sim, Search, Io, Internal];
        let codes: Vec<u8> = cats.iter().map(|c| c.exit_code()).collect();
        let mut dedup = codes.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), codes.len(), "{codes:?}");
        assert!(codes.iter().all(|&c| c > 1), "codes 0/1 are reserved: {codes:?}");
        assert_eq!(Lex.exit_code(), Parse.exit_code());
    }

    #[test]
    fn io_errors_convert() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "ghost.tirl");
        let e: TybecError = io.into();
        assert_eq!(e.category, ErrorCategory::Io);
        assert!(e.to_string().contains("ghost.tirl"));
    }
}
