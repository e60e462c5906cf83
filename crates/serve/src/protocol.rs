//! The `tybec serve` wire protocol: JSONL requests and responses.
//!
//! One request per line, one response per line, in either direction of
//! a TCP or Unix-domain stream. Requests are strict JSON objects (the
//! hardened parser in [`tytra_trace::json`] rejects nesting bombs and
//! trailing garbage). A connection's responses come back in the order of
//! its requests, each echoing its request's `id`, so clients may
//! pipeline.
//!
//! See `docs/serve.md` for the full schema. In short:
//!
//! ```text
//! → {"id":1,"kind":"estimate","design":"<tirl>","target":"eval-small"}
//! ← {"id":1,"ok":true,"report":"== cost report: ..."}
//! → {"id":2,"kind":"estimate","design":"]broken"}
//! ← {"id":2,"ok":false,"error":{"category":"parse","exit_code":2,...}}
//! ```
//!
//! Error payloads reuse the pipeline's [`TybecError`] vocabulary: the
//! `category` label and `exit_code` are exactly what the offline CLI
//! would print and exit with for the same input.

use tytra_dse::SearchConfig;
use tytra_ir::{ErrorCategory, Span, TybecError};
use tytra_trace::json::{self, Json};
pub use tytra_trace::metrics::MetricsFormat;

/// A decoded request body.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestKind {
    /// Full cost report for a TIRL design — the payload is byte-identical
    /// to `tybec cost` stdout for the same design and target.
    Estimate { design: String, target: String },
    /// Bound-pass verdict (exact fit, EKIT upper bound) for a TIRL design.
    Bound { design: String, target: String },
    /// Dataflow-analysis report (`tybec analyze`); `json` selects the
    /// strict-JSON rendering.
    Analyze { design: String, json: bool },
    /// Full-space search leaderboard for a named kernel — at the default
    /// `top` of 10 the payload is byte-identical to the `== full
    /// exploration ==` section of `tybec dse`. `top` is the board size:
    /// the payload ranks up to `top` valid variants.
    Dse { kernel: String, target: String, lanes: Vec<u64>, top: usize },
    /// Snapshot of the daemon's live metrics registry.
    Metrics { format: MetricsFormat },
    /// Ask the daemon to stop accepting connections.
    Shutdown,
}

/// One decoded request line.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    /// The request body.
    pub kind: RequestKind,
}

/// A rejected request line: the error plus the best-effort `id` (0 when
/// the line was too broken to extract one) so the client can still
/// correlate the failure.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestError {
    /// Correlation id, 0 if unrecoverable.
    pub id: u64,
    /// What was wrong with the line.
    pub error: TybecError,
}

impl RequestError {
    fn new(id: u64, error: TybecError) -> RequestError {
        RequestError { id, error }
    }
}

fn parse_error(id: u64, message: impl Into<String>) -> RequestError {
    RequestError::new(id, TybecError::new(ErrorCategory::Parse, message))
}

/// Decode one JSONL request line.
///
/// JSON-level failures carry a span pointing at the offending byte
/// (requests are single lines, so `line` is always 1 and `col` is the
/// byte offset plus one).
pub fn parse_request(line: &str) -> Result<Request, RequestError> {
    let v = json::parse_spanned(line).map_err(|e| {
        let span = Span { line: 1, col: u32::try_from(e.offset).unwrap_or(u32::MAX - 1) + 1 };
        RequestError::new(
            0,
            TybecError::new(ErrorCategory::Parse, format!("request JSON: {}", e.message))
                .with_span(span),
        )
    })?;
    let Json::Obj(mut obj) = v else { return Err(parse_error(0, "request must be a JSON object")) };
    // The design is most of a request line: take it out of the object
    // rather than copy it.
    let design = match obj.remove("design") {
        Some(Json::Str(s)) => Some(s),
        _ => None,
    };
    let id = match obj.get("id") {
        Some(j) => {
            let n = j.as_num().ok_or_else(|| parse_error(0, "`id` must be a number"))?;
            if !(n.is_finite() && n >= 0.0 && n.fract() == 0.0) {
                return Err(parse_error(0, "`id` must be a non-negative integer"));
            }
            n as u64
        }
        None => 0,
    };
    let kind_name = obj
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| parse_error(id, "missing `kind` (expected a string)"))?;

    let take_design = || -> Result<String, RequestError> {
        design
            .ok_or_else(|| parse_error(id, format!("`{kind_name}` needs a string `design` field")))
    };
    let str_field = |name: &str| -> Result<String, RequestError> {
        obj.get(name)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| parse_error(id, format!("`{kind_name}` needs a string `{name}` field")))
    };
    let target = || -> Result<String, RequestError> {
        match obj.get("target") {
            Some(j) => j
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| parse_error(id, "`target` must be a string")),
            None => Ok(tytra_device::DEFAULT_TARGET.to_string()),
        }
    };
    let bool_field = |name: &str, default: bool| -> Result<bool, RequestError> {
        match obj.get(name) {
            Some(j) => {
                j.as_bool().ok_or_else(|| parse_error(id, format!("`{name}` must be a boolean")))
            }
            None => Ok(default),
        }
    };
    let uint_field = |name: &str, default: u64| -> Result<u64, RequestError> {
        match obj.get(name) {
            Some(j) => match j.as_num() {
                Some(n) if n.is_finite() && n >= 0.0 && n.fract() == 0.0 => Ok(n as u64),
                _ => Err(parse_error(id, format!("`{name}` must be a non-negative integer"))),
            },
            None => Ok(default),
        }
    };

    let kind = match kind_name {
        "estimate" => RequestKind::Estimate { design: take_design()?, target: target()? },
        "bound" => RequestKind::Bound { design: take_design()?, target: target()? },
        "analyze" => {
            RequestKind::Analyze { design: take_design()?, json: bool_field("json", false)? }
        }
        "dse" => {
            let defaults = SearchConfig::default();
            let lanes = match obj.get("lanes") {
                Some(j) => {
                    let arr = j
                        .as_arr()
                        .ok_or_else(|| parse_error(id, "`lanes` must be an array of integers"))?;
                    let mut lanes = Vec::with_capacity(arr.len());
                    for l in arr {
                        match l.as_num() {
                            Some(n) if n.is_finite() && n >= 1.0 && n.fract() == 0.0 => {
                                lanes.push(n as u64)
                            }
                            _ => {
                                return Err(parse_error(
                                    id,
                                    "`lanes` must be an array of positive integers",
                                ))
                            }
                        }
                    }
                    lanes
                }
                None => defaults.space.lanes,
            };
            RequestKind::Dse {
                kernel: str_field("kernel")?,
                target: target()?,
                lanes,
                top: uint_field("top", defaults.top_k as u64)? as usize,
            }
        }
        "metrics" => {
            let name = obj.get("format").and_then(Json::as_str).unwrap_or("table");
            let format = MetricsFormat::from_name(name).ok_or_else(|| {
                parse_error(
                    id,
                    format!("unknown metrics format `{name}` (expected table|prometheus)"),
                )
            })?;
            RequestKind::Metrics { format }
        }
        "shutdown" => RequestKind::Shutdown,
        other => {
            return Err(parse_error(
                id,
                format!(
                    "unknown kind `{other}` \
                     (expected estimate|bound|analyze|dse|metrics|shutdown)"
                ),
            ))
        }
    };
    Ok(Request { id, kind })
}

/// Render a success response line (trailing newline included).
pub fn render_ok(id: u64, payload: &str) -> String {
    format!("{{\"id\":{id},\"ok\":true,\"report\":\"{}\"}}\n", json::escape(payload))
}

/// Render a failure response line (trailing newline included). The
/// error object mirrors the CLI's behaviour for the same failure: the
/// category label it prints and the code it exits with. `flight_dump`
/// carries the answering thread's flight-recorder breadcrumbs when the request
/// died in a panic.
pub fn render_err(id: u64, err: &TybecError, flight_dump: Option<&str>) -> String {
    let mut s = format!(
        "{{\"id\":{id},\"ok\":false,\"error\":{{\"category\":\"{}\",\"exit_code\":{},\"message\":\"{}\"",
        err.category.label(),
        err.category.exit_code(),
        json::escape(&err.message),
    );
    if let Some(span) = err.span {
        s.push_str(&format!(",\"line\":{},\"col\":{}", span.line, span.col));
    }
    s.push('}');
    if let Some(dump) = flight_dump {
        s.push_str(&format!(",\"flight_dump\":\"{}\"", json::escape(dump)));
    }
    s.push_str("}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimate_request_round_trips() {
        let r = parse_request(r#"{"id":7,"kind":"estimate","design":"x","target":"eval-small"}"#)
            .unwrap();
        assert_eq!(r.id, 7);
        assert_eq!(
            r.kind,
            RequestKind::Estimate { design: "x".into(), target: "eval-small".into() }
        );
    }

    #[test]
    fn target_defaults_to_the_cli_default() {
        let r = parse_request(r#"{"id":1,"kind":"bound","design":"x"}"#).unwrap();
        assert_eq!(
            r.kind,
            RequestKind::Bound { design: "x".into(), target: "stratix-v-gsd8".into() }
        );
    }

    #[test]
    fn dse_request_defaults_match_the_cli() {
        let r = parse_request(r#"{"id":1,"kind":"dse","kernel":"sor"}"#).unwrap();
        assert_eq!(
            r.kind,
            RequestKind::Dse {
                kernel: "sor".into(),
                target: "stratix-v-gsd8".into(),
                lanes: vec![1, 2, 4, 8, 16, 32],
                top: 10,
            }
        );
    }

    #[test]
    fn broken_json_yields_a_spanned_parse_error() {
        let e = parse_request(r#"{"id":1,"#).unwrap_err();
        assert_eq!(e.id, 0, "id unrecoverable from broken JSON");
        assert_eq!(e.error.category, ErrorCategory::Parse);
        let span = e.error.span.expect("span");
        assert_eq!(span.line, 1);
        assert!(span.col >= 1);
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        assert!(parse_request(r#"{"id":1,"kind":"shutdown"} {"#).is_err());
    }

    #[test]
    fn bad_fields_keep_the_request_id() {
        let e = parse_request(r#"{"id":9,"kind":"estimate"}"#).unwrap_err();
        assert_eq!(e.id, 9);
        assert_eq!(e.error.category, ErrorCategory::Parse);
        let e = parse_request(r#"{"id":9,"kind":"teapot"}"#).unwrap_err();
        assert_eq!(e.id, 9);
    }

    #[test]
    fn responses_escape_payloads_and_echo_ids() {
        let line = render_ok(3, "a \"quoted\"\nreport");
        assert_eq!(line, "{\"id\":3,\"ok\":true,\"report\":\"a \\\"quoted\\\"\\nreport\"}\n");
        let parsed = json::parse(line.trim_end()).unwrap();
        assert_eq!(parsed.get("report").and_then(Json::as_str), Some("a \"quoted\"\nreport"));
    }

    #[test]
    fn error_responses_carry_category_code_and_span() {
        let err = TybecError::new(ErrorCategory::Validate, "bad design")
            .with_span(Span { line: 4, col: 2 });
        let line = render_err(5, &err, Some("lane dump"));
        let parsed = json::parse(line.trim_end()).unwrap();
        assert_eq!(parsed.get("ok").and_then(Json::as_bool), Some(false));
        let e = parsed.get("error").unwrap();
        assert_eq!(e.get("category").and_then(Json::as_str), Some("validate"));
        assert_eq!(e.get("exit_code").and_then(Json::as_num), Some(3.0));
        assert_eq!(e.get("line").and_then(Json::as_num), Some(4.0));
        assert_eq!(e.get("col").and_then(Json::as_num), Some(2.0));
        assert_eq!(parsed.get("flight_dump").and_then(Json::as_str), Some("lane dump"));
    }
}
