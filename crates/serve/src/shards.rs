//! The `POST /shards` wire format, both ends side by side: the request the
//! dispatch coordinator sends for one lease, and the result line a worker
//! streams back per shard (one compact-JSON line per chunk).
//!
//! A result line carries the shard's rendered cell fragments, its tally
//! and an FNV-1a digest over the fragment bytes (in cell order, no
//! separators, seeded with [`FNV_OFFSET`]).  The digest is computed here,
//! where the line is rendered, and recomputed here, where it is parsed, so
//! a torn or reordered transfer never reaches the merged report.  The
//! parser also checks the shard's size against the plan: a worker running
//! a different binary or plan cannot slip a short shard into the merge.

use crate::job::{JobSpec, SubmitError};
use crate::lease::Assignment;
use ld_runner::json::Json;
use ld_runner::stream::{fnv1a, ShardCells, ShardLayout, FNV_OFFSET};
use ld_runner::SweepConfig;

/// The wire schema of `POST /shards` bodies.
pub const SHARDS_SCHEMA: &str = "ld-serve/shards/v1";

/// The parsed body of one `POST /shards` request.
pub(crate) struct ShardsRequest {
    pub(crate) spec: JobSpec,
    pub(crate) epoch: u64,
    pub(crate) first_shard: usize,
    pub(crate) stop_shard: usize,
}

/// The `POST /shards` request body for one assignment: a [`JobSpec`]-shaped
/// document plus the dispatch fields (`schema`, `epoch`, `first_shard`,
/// `stop_shard`).
pub(crate) fn request_body(
    scenario: &str,
    config: &SweepConfig,
    assignment: &Assignment,
) -> String {
    let spec = JobSpec {
        scenario: scenario.to_string(),
        priority: 0,
        config: config.clone(),
        scenario_doc: None,
    };
    spec.to_json()
        .set("schema", SHARDS_SCHEMA)
        .set("epoch", assignment.epoch)
        .set("first_shard", assignment.shards.start)
        .set("stop_shard", assignment.shards.end)
        .render_compact()
}

/// Parses a `POST /shards` body (see [`request_body`]).
pub(crate) fn parse_request(body: &[u8]) -> Result<ShardsRequest, SubmitError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| SubmitError::Malformed("body is not UTF-8".to_string()))?;
    let json = Json::parse(text).map_err(SubmitError::Malformed)?;
    if json.get("schema").and_then(Json::as_str) != Some(SHARDS_SCHEMA) {
        return Err(SubmitError::Malformed(format!(
            "missing or unsupported 'schema' (want \"{SHARDS_SCHEMA}\")"
        )));
    }
    let spec = JobSpec::from_json(&json)?;
    let number = |key: &str| {
        json.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| SubmitError::Malformed(format!("missing integer field '{key}'")))
    };
    Ok(ShardsRequest {
        spec,
        epoch: number("epoch")?,
        first_shard: number("first_shard")? as usize,
        stop_shard: number("stop_shard")? as usize,
    })
}

/// One shard's result line, newline-terminated, echoing the lease `epoch`.
pub(crate) fn render_line(cells: &ShardCells, epoch: u64) -> String {
    let digest = cells
        .fragments
        .iter()
        .fold(FNV_OFFSET, |h, f| fnv1a(h, f.as_bytes()));
    let mut line = Json::object()
        .set("shard", cells.shard)
        .set("epoch", epoch)
        .set("digest", digest)
        .set("passed", cells.passed)
        .set("failed", cells.failed)
        .set("panicked", cells.panicked)
        .set("exhausted", cells.exhausted)
        .set(
            "wall_micros",
            Json::array(cells.wall_micros.iter().copied()),
        )
        .set(
            "failures",
            Json::Arr(
                cells
                    .failures
                    .iter()
                    .map(|(id, what)| Json::array([id.as_str(), what.as_str()]))
                    .collect(),
            ),
        )
        .set(
            "cells",
            Json::Arr(
                cells
                    .fragments
                    .iter()
                    .map(|f| Json::Str(f.clone()))
                    .collect(),
            ),
        )
        .render_compact();
    line.push('\n');
    line
}

/// Parses and integrity-checks one result line against the plan's
/// `layout`; returns the echoed epoch alongside the shard.
///
/// # Errors
///
/// Returns a message on structural problems, a digest mismatch (the
/// fragments do not hash to the digest the worker computed — bytes were
/// torn or reordered in transit), a shard outside the plan, or a shard
/// whose cells, wall times or tally disagree with the plan's shard size.
pub(crate) fn parse_line(line: &str, layout: ShardLayout) -> Result<(u64, ShardCells), String> {
    let json = Json::parse(line).map_err(|e| format!("bad shard line: {e}"))?;
    let number = |key: &str| {
        json.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("shard line missing integer '{key}'"))
    };
    let strings = |key: &str| -> Result<Vec<String>, String> {
        json.get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("shard line missing array '{key}'"))?
            .iter()
            .map(|v| {
                v.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| format!("non-string entry in '{key}'"))
            })
            .collect()
    };
    let shard = number("shard")? as usize;
    let epoch = number("epoch")?;
    let digest = number("digest")?;
    let fragments = strings("cells")?;
    let check = fragments
        .iter()
        .fold(FNV_OFFSET, |h, f| fnv1a(h, f.as_bytes()));
    if check != digest {
        return Err(format!(
            "shard {shard}: fragment digest {check:#018x} does not match reported {digest:#018x}"
        ));
    }
    let wall_micros = json
        .get("wall_micros")
        .and_then(Json::as_arr)
        .ok_or("shard line missing array 'wall_micros'")?
        .iter()
        .map(|v| v.as_u64().ok_or("non-integer entry in 'wall_micros'"))
        .collect::<Result<Vec<u64>, _>>()?;
    let failures = json
        .get("failures")
        .and_then(Json::as_arr)
        .ok_or("shard line missing array 'failures'")?
        .iter()
        .map(|pair| {
            let pair = pair.as_arr().ok_or("failure entry is not a pair")?;
            match pair {
                [id, what] => Ok((
                    id.as_str().ok_or("failure id is not a string")?.to_string(),
                    what.as_str()
                        .ok_or("failure message is not a string")?
                        .to_string(),
                )),
                _ => Err("failure entry is not a pair".to_string()),
            }
        })
        .collect::<Result<Vec<(String, String)>, String>>()?;
    let cells = ShardCells {
        shard,
        fragments,
        passed: number("passed")? as usize,
        failed: number("failed")? as usize,
        panicked: number("panicked")? as usize,
        exhausted: number("exhausted")? as usize,
        wall_micros,
        failures,
    };
    if shard >= layout.shard_count() {
        return Err(format!(
            "shard {shard} outside the plan's 0..{}",
            layout.shard_count()
        ));
    }
    let expected = layout.shard_range(shard).len();
    let tallied = cells
        .passed
        .saturating_add(cells.failed)
        .saturating_add(cells.panicked);
    if cells.fragments.len() != expected
        || cells.wall_micros.len() != expected
        || tallied != expected
    {
        return Err(format!(
            "shard {shard}: {} cells, {} wall times and {tallied} tallied, \
             but the plan's shard holds {expected}",
            cells.fragments.len(),
            cells.wall_micros.len()
        ));
    }
    Ok((epoch, cells))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Shard 3 of a layout whose shards hold two cells.
    fn layout() -> ShardLayout {
        ShardLayout::new(10, 2)
    }

    fn shard() -> ShardCells {
        ShardCells {
            shard: 3,
            fragments: vec![
                "{\n      \"id\": \"cell-a\"\n    }".to_string(),
                "{\"id\":\"cell-b\"}".to_string(),
            ],
            passed: 1,
            failed: 1,
            panicked: 0,
            exhausted: 0,
            wall_micros: vec![5, 9],
            failures: vec![("cell-b".to_string(), "verdict mismatch".to_string())],
        }
    }

    #[test]
    fn shard_lines_round_trip_with_digest_verification() {
        let line = render_line(&shard(), 7);
        assert!(line.ends_with('\n'));
        let (epoch, parsed) = parse_line(&line, layout()).expect("parse");
        assert_eq!(epoch, 7);
        assert_eq!(parsed, shard());
    }

    #[test]
    fn corrupted_fragments_fail_the_digest_cross_check() {
        let line = render_line(&shard(), 7).replace("cell-a", "cell-z");
        let err = parse_line(&line, layout()).expect_err("mismatch");
        assert!(err.contains("digest"), "{err}");
    }

    /// A valid-digest line whose shard disagrees with the plan's shard size
    /// (a worker on another binary or plan) is refused, however it is short.
    #[test]
    fn shards_whose_size_disagrees_with_the_plan_are_refused() {
        let mut short = shard();
        short.fragments.pop();
        short.wall_micros.pop();
        short.failed = 0;
        short.failures.clear();
        let mut untallied = shard();
        untallied.failed = 0;
        let mut unwalled = shard();
        unwalled.wall_micros.pop();
        for cells in [short, untallied, unwalled] {
            let err = parse_line(&render_line(&cells, 7), layout()).expect_err("size");
            assert!(err.contains("the plan's shard holds 2"), "{err}");
        }
        let mut outside = shard();
        outside.shard = 5;
        let err = parse_line(&render_line(&outside, 7), layout()).expect_err("range");
        assert!(err.contains("outside the plan"), "{err}");
    }

    #[test]
    fn shards_bodies_carry_the_wire_schema_and_range() {
        let assignment = Assignment {
            worker: "127.0.0.1:7117".to_string(),
            epoch: 12,
            shards: 4..9,
        };
        let body = request_body("section2-sweep", &SweepConfig::default(), &assignment);
        let json = Json::parse(&body).expect("parse");
        assert_eq!(
            json.get("schema").and_then(Json::as_str),
            Some(SHARDS_SCHEMA)
        );
        assert!(json.get("config").is_some());
        let request = parse_request(body.as_bytes()).expect("parse request");
        assert_eq!(request.spec.scenario, "section2-sweep");
        assert_eq!(request.epoch, 12);
        assert_eq!((request.first_shard, request.stop_shard), (4, 9));
    }
}
