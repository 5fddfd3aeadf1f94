//! The wire schemas: JSON bodies in, [`ProblemSpec`]s and [`Instance`]s
//! out, plus the typed request-error currency and the `SolveError` →
//! HTTP status mapping. DESIGN.md §9 is the normative grammar; this
//! module is its decoder.

use crate::json::Json;
use lcl_grids::core::problems::XSet;
use lcl_grids::engine::{Instance, ProblemSpec, SolveError};
use lcl_grids::grid::Metric;
use lcl_grids::local::IdAssignment;

/// A request the service rejects before (or instead of) solving: an HTTP
/// status, a stable machine-readable code, and a human-readable message.
/// Serialised as `{"error": code, "message": ...}`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ApiError {
    /// HTTP status to answer with.
    pub status: u16,
    /// Stable machine-readable code (kebab-case).
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl ApiError {
    /// A 400 with the given code.
    pub fn bad_request(code: &'static str, message: impl Into<String>) -> ApiError {
        ApiError {
            status: 400,
            code,
            message: message.into(),
        }
    }

    /// The JSON body every error response carries.
    pub fn body(&self) -> String {
        Json::obj(vec![
            ("error", Json::str(self.code)),
            ("message", Json::str(self.message.clone())),
        ])
        .to_string()
    }
}

/// Reads a required object field.
fn require<'a>(body: &'a Json, key: &str) -> Result<&'a Json, ApiError> {
    body.get(key)
        .ok_or_else(|| ApiError::bad_request("missing-field", format!("missing field '{key}'")))
}

/// Reads a required string field.
fn require_str<'a>(body: &'a Json, key: &str) -> Result<&'a str, ApiError> {
    require(body, key)?.as_str().ok_or_else(|| {
        ApiError::bad_request("bad-field", format!("field '{key}' must be a string"))
    })
}

/// Reads a required non-negative integer field.
fn require_usize(body: &Json, key: &str) -> Result<usize, ApiError> {
    require(body, key)?.as_usize().ok_or_else(|| {
        ApiError::bad_request(
            "bad-field",
            format!("field '{key}' must be a non-negative integer"),
        )
    })
}

/// Decodes a `"problem"` object into a [`ProblemSpec`].
///
/// Accepted shapes (the `type` tag selects the family):
///
/// * `{"type":"vertex-colouring","k":4}`
/// * `{"type":"edge-colouring","k":6}`
/// * `{"type":"orientation","degrees":[1,3,4]}` (in-degrees, each ≤ 4)
/// * `{"type":"independent-set"}`
/// * `{"type":"mis-with-pointers"}`
/// * `{"type":"corner-coordination"}`
/// * `{"type":"mis-power","metric":"l1"|"linf","k":2}`
/// * `{"type":"dsl","source":"<lcl-lang source>"}` — compiled on the
///   spot; compile errors come back as 400s with the compiler's message.
pub fn parse_problem(problem: &Json) -> Result<ProblemSpec, ApiError> {
    let kind = require_str(problem, "type")?;
    match kind {
        "vertex-colouring" | "edge-colouring" => {
            let k = require_usize(problem, "k")?;
            // Edge colourings label by colour pairs: k² must fit a u16.
            let max = if kind == "vertex-colouring" {
                65535
            } else {
                255
            };
            let k = u16::try_from(k)
                .ok()
                .filter(|k| (1..=max).contains(k))
                .ok_or_else(|| {
                    ApiError::bad_request("bad-field", format!("field 'k' must be in 1..={max}"))
                })?;
            Ok(if kind == "vertex-colouring" {
                ProblemSpec::vertex_colouring(k)
            } else {
                ProblemSpec::edge_colouring(k)
            })
        }
        "orientation" => {
            let degrees = require(problem, "degrees")?.as_arr().ok_or_else(|| {
                ApiError::bad_request("bad-field", "field 'degrees' must be an array")
            })?;
            let mut parsed = Vec::with_capacity(degrees.len());
            for d in degrees {
                let d = d.as_u64().filter(|d| *d <= 4).ok_or_else(|| {
                    ApiError::bad_request("bad-field", "in-degrees must be integers in 0..=4")
                })?;
                parsed.push(d as u8);
            }
            if parsed.is_empty() {
                return Err(ApiError::bad_request(
                    "bad-field",
                    "field 'degrees' must be non-empty",
                ));
            }
            Ok(ProblemSpec::orientation(XSet::from_degrees(&parsed)))
        }
        "independent-set" => Ok(ProblemSpec::independent_set()),
        "mis-with-pointers" => Ok(ProblemSpec::mis_with_pointers()),
        "corner-coordination" => Ok(ProblemSpec::corner_coordination()),
        "mis-power" => {
            let metric = match require_str(problem, "metric")? {
                "l1" => Metric::L1,
                "linf" => Metric::Linf,
                other => {
                    return Err(ApiError::bad_request(
                        "bad-field",
                        format!("unknown metric '{other}' (expected 'l1' or 'linf')"),
                    ))
                }
            };
            let k = require_usize(problem, "k")?;
            if !(1..=8).contains(&k) {
                return Err(ApiError::bad_request(
                    "bad-field",
                    "mis-power field 'k' must be in 1..=8",
                ));
            }
            Ok(ProblemSpec::mis_power(metric, k))
        }
        "dsl" => {
            let source = require_str(problem, "source")?;
            ProblemSpec::compile(source)
                .map_err(|e| ApiError::bad_request("dsl-compile-error", e.to_string()))
        }
        other => Err(ApiError::bad_request(
            "unknown-problem-type",
            format!("unknown problem type '{other}'"),
        )),
    }
}

/// Decodes an `"ids"` field into an [`IdAssignment`]; absent means
/// sequential.
fn parse_ids(instance: &Json) -> Result<IdAssignment, ApiError> {
    match instance.get("ids") {
        None => Ok(IdAssignment::Sequential),
        Some(Json::Str(s)) if s == "sequential" => Ok(IdAssignment::Sequential),
        Some(obj @ Json::Obj(_)) => match require_str(obj, "kind")? {
            "shuffled" => {
                let seed = require(obj, "seed")?.as_u64().ok_or_else(|| {
                    ApiError::bad_request("bad-field", "field 'seed' must be an integer")
                })?;
                Ok(IdAssignment::Shuffled { seed })
            }
            other => Err(ApiError::bad_request(
                "bad-field",
                format!("unknown ids kind '{other}' (expected 'shuffled')"),
            )),
        },
        Some(_) => Err(ApiError::bad_request(
            "bad-field",
            "field 'ids' must be \"sequential\" or {\"kind\":\"shuffled\",\"seed\":n}",
        )),
    }
}

/// Decodes an `"instance"` object into an [`Instance`], enforcing the
/// per-instance node cap (admission control against `side: 10^9`).
///
/// Accepted shapes (the `topology` tag selects the family):
///
/// * `{"topology":"torus2","side":16,"ids":...}` — square 2-d torus
/// * `{"topology":"torusd","d":3,"side":4,"ids":...}` — d-dimensional
/// * `{"topology":"boundary","side":8}` — boundary grid (sequential ids)
pub fn parse_instance(instance: &Json, max_nodes: usize) -> Result<Instance, ApiError> {
    let topology = require_str(instance, "topology")?;
    let side = require_usize(instance, "side")?;
    if side == 0 {
        return Err(ApiError::bad_request(
            "bad-field",
            "field 'side' must be positive",
        ));
    }
    let check_nodes = |nodes: Option<usize>| -> Result<usize, ApiError> {
        match nodes {
            Some(n) if n <= max_nodes => Ok(n),
            _ => Err(ApiError {
                status: 413,
                code: "instance-too-large",
                message: format!("instance exceeds the {max_nodes}-node admission cap"),
            }),
        }
    };
    match topology {
        "torus2" => {
            check_nodes(side.checked_mul(side))?;
            Ok(Instance::square(side, &parse_ids(instance)?))
        }
        "torusd" => {
            let d = require_usize(instance, "d")?;
            if !(2..=6).contains(&d) {
                return Err(ApiError::bad_request(
                    "bad-field",
                    "field 'd' must be in 2..=6",
                ));
            }
            let mut nodes: Option<usize> = Some(1);
            for _ in 0..d {
                nodes = nodes.and_then(|n| n.checked_mul(side));
            }
            check_nodes(nodes)?;
            Ok(Instance::torus_d(d, side, &parse_ids(instance)?))
        }
        "boundary" => {
            check_nodes(side.checked_mul(side))?;
            Ok(Instance::boundary(side))
        }
        other => Err(ApiError::bad_request(
            "unknown-topology",
            format!("unknown topology '{other}' (expected torus2, torusd, or boundary)"),
        )),
    }
}

/// Maps a [`SolveError`] to its HTTP status: domain verdicts (the problem
/// or instance is the issue) are 422s the client can act on, engine-side
/// failures are 500s, a tripped request budget is a 504, and a cancelled
/// request is a 503.
pub fn solve_error_status(err: &SolveError) -> u16 {
    match err {
        SolveError::Unsolvable { .. }
        | SolveError::UnsupportedTopology { .. }
        | SolveError::TorusTooSmall { .. }
        | SolveError::RoundBudgetExceeded { .. }
        | SolveError::SynthesisFailed { .. }
        | SolveError::NoSolver { .. } => 422,
        SolveError::SolverFailed { .. }
        | SolveError::ValidationFailed { .. }
        | SolveError::Panicked { .. } => 500,
        SolveError::Cancelled => 503,
        SolveError::DeadlineExceeded { .. } => 504,
    }
}

/// A stable kebab-case code for a [`SolveError`] variant.
pub fn solve_error_code(err: &SolveError) -> &'static str {
    match err {
        SolveError::Unsolvable { .. } => "unsolvable",
        SolveError::UnsupportedTopology { .. } => "unsupported-topology",
        SolveError::TorusTooSmall { .. } => "torus-too-small",
        SolveError::RoundBudgetExceeded { .. } => "round-budget-exceeded",
        SolveError::SynthesisFailed { .. } => "synthesis-failed",
        SolveError::SolverFailed { .. } => "solver-failed",
        SolveError::NoSolver { .. } => "no-solver",
        SolveError::ValidationFailed { .. } => "validation-failed",
        SolveError::Panicked { .. } => "solver-panicked",
        SolveError::Cancelled => "cancelled",
        SolveError::DeadlineExceeded { .. } => "deadline",
    }
}

/// Serialises a solve failure as the standard error body.
pub fn solve_error_body(err: &SolveError) -> String {
    Json::obj(vec![
        ("error", Json::str(solve_error_code(err))),
        ("message", Json::str(err.to_string())),
    ])
    .to_string()
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests panic by design
mod tests {
    use super::*;
    use lcl_grids::engine::Topology;

    fn decode(src: &str) -> Json {
        Json::parse(src).unwrap()
    }

    #[test]
    fn parses_each_problem_family() {
        for (src, name) in [
            (r#"{"type":"vertex-colouring","k":4}"#, "vertex-4-colouring"),
            (r#"{"type":"edge-colouring","k":6}"#, "edge-6-colouring"),
            (r#"{"type":"independent-set"}"#, "independent-set"),
        ] {
            assert_eq!(parse_problem(&decode(src)).unwrap().name(), name);
        }
        assert!(parse_problem(&decode(r#"{"type":"orientation","degrees":[1,3,4]}"#)).is_ok());
        assert!(parse_problem(&decode(r#"{"type":"mis-power","metric":"l1","k":2}"#)).is_ok());
    }

    #[test]
    fn rejects_bad_problems() {
        for src in [
            r#"{"type":"vertex-colouring"}"#,
            r#"{"type":"vertex-colouring","k":0}"#,
            r#"{"type":"edge-colouring","k":256}"#,
            r#"{"type":"orientation","degrees":[9]}"#,
            r#"{"type":"orientation","degrees":[]}"#,
            r#"{"type":"mystery"}"#,
            r#"{"type":"dsl","source":"not a program"}"#,
            r#"{}"#,
        ] {
            let err = parse_problem(&decode(src)).expect_err(src);
            assert_eq!(err.status, 400, "{src}");
        }
    }

    #[test]
    fn parses_instances_and_caps_size() {
        let inst = parse_instance(&decode(r#"{"topology":"torus2","side":8}"#), 1000).unwrap();
        assert_eq!(inst.node_count(), 64);
        assert_eq!(inst.topology(), Topology::Torus2);
        let inst = parse_instance(
            &decode(r#"{"topology":"torusd","d":3,"side":4,"ids":{"kind":"shuffled","seed":7}}"#),
            1000,
        )
        .unwrap();
        assert_eq!(inst.node_count(), 64);
        let err = parse_instance(&decode(r#"{"topology":"torus2","side":64}"#), 1000).unwrap_err();
        assert_eq!(err.status, 413);
        // A side large enough to overflow usize² must be caught, not wrap.
        let huge = r#"{"topology":"torus2","side":8589934592}"#; // 2^33
        assert_eq!(parse_instance(&decode(huge), 1000).unwrap_err().status, 413);
    }
}
