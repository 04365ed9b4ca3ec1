//! The sweep driver: sharded execution, one report sink, and
//! checkpoint/resume.
//!
//! A sweep's shards come from one of two sources, and every persisted byte
//! goes through one sink.  The sources: the local pipeline (`run_shards`
//! here, behind [`run`], [`resume`], the `ld-serve` daemon's jobs and
//! [`crate::executor::execute`]), and the remote leases of `ldx dispatch`,
//! whose `POST /shards` workers run single shards through
//! [`execute_shard`].  The sink, [`ReportSink`], writes the report file,
//! its checkpoint and the running totals for both, so a dispatched report
//! is written by the same code as a local one.  (`execute` collects the
//! local shards into an in-memory [`RunReport`](crate::report::RunReport)
//! instead.)  The pipeline:
//!
//! 1. **Deterministic shards.**  The plan's cells are partitioned by index
//!    into fixed-size shards ([`ShardLayout`], `SweepConfig::shard_size`
//!    cells each).  Shard boundaries are a pure function of the plan and
//!    the config — never of thread count or timing.
//! 2. **A bounded pipeline.**  Workers claim shards off an atomic counter
//!    and send completed shards through a *bounded* channel to the single
//!    writer (the calling thread).  A claim gate additionally stops any
//!    worker from running more than a fixed window ahead of the writer, so
//!    the number of shards in flight — executing, channel-queued or
//!    buffered for reordering — is bounded whatever the stragglers do.
//!    Peak memory is O(window × shard), not O(plan).  With one effective
//!    worker the calling thread runs the shards itself, with no channel or
//!    gate; the emitted shards are identical either way.
//! 3. **One tally.**  [`ShardCells::tally`] renders a shard's results and
//!    counts them; the local driver and the `POST /shards` worker both use
//!    it, and the sink appends its output whichever source ran the shard.
//! 4. **An append-only report.**  [`ReportStream`] emits schema
//!    `ld-runner/report/v3` incrementally: header, the `cells` array in
//!    cell-index order, then the trailing `summary` (and `perf`) objects.
//!    It is the only v3 renderer: [`RunReport`](crate::report::RunReport)
//!    renders through it too, so a report's bytes do not depend on the sink
//!    or on the thread count.
//! 5. **Checkpoints.**  After each shard is written and flushed, a sidecar
//!    `<report>.ckpt` line records the shard's counters, the report's byte
//!    offset and a running FNV-1a digest of everything written so far.  A
//!    killed sweep — local or dispatched — leaves a valid report prefix
//!    plus the sidecar; [`resume`] verifies the digest, truncates any
//!    half-written tail, and continues from the first unfinished shard on
//!    the local pipeline — producing a final report byte-identical to an
//!    uninterrupted run (per-cell seeds derive from the *global* cell
//!    index, so resumed cells replay exactly).
//!
//! `ldx diff` compares any two persisted reports via [`crate::summary`].

use crate::cell::CellResult;
use crate::executor::{effective_workers, run_cell};
use crate::json::Json;
use crate::report::{cell_json, config_json, csv_header, csv_row, perf_json, summary_json, SCHEMA};
use crate::scenario::{Plan, PlannedCell, Scenario, SweepConfig};
use crate::spool_io::{RealIo, SpoolFile, SpoolIo};
use interleave::{
    AtomicBoolApi, AtomicUsizeApi, CondvarApi, MutexApi, ReceiverApi, SenderApi, StdSync,
    SyncFacade,
};
use ld_local::cache::CacheStats;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
// ld-analyze: allow(D002, reason = "wall-clock timings are reporting-only; no control flow depends on them")
use std::time::{Duration, Instant};

/// The schema identifier of checkpoint sidecar files.
pub const CKPT_SCHEMA: &str = "ld-runner/ckpt/v1";

/// FNV-1a 64 over `bytes`, continuing from `state` (seed with
/// [`FNV_OFFSET`]).  The checkpoint digest: cheap, streaming, and entirely
/// deterministic — it guards against resuming onto a report that was
/// edited, torn, or produced by a different run, not against adversaries.
/// Public because the `POST /shards` wire line digests its cell fragments
/// with the same function.
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// The FNV-1a 64 offset basis (the digest of zero bytes).
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The deterministic partition of a plan's cells into fixed-size shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardLayout {
    /// Cells per shard (the final shard may be smaller).
    pub shard_size: usize,
    /// Total cells in the plan.
    pub cell_count: usize,
}

impl ShardLayout {
    /// The layout for `cell_count` cells in shards of `shard_size`.
    pub fn new(cell_count: usize, shard_size: usize) -> Self {
        assert!(shard_size > 0, "shard_size validated nonzero upstream");
        ShardLayout {
            shard_size,
            cell_count,
        }
    }

    /// Number of shards (zero cells plan to zero shards).
    pub fn shard_count(&self) -> usize {
        self.cell_count.div_ceil(self.shard_size)
    }

    /// The global cell-index range of shard `shard`.
    pub fn shard_range(&self, shard: usize) -> std::ops::Range<usize> {
        let start = shard * self.shard_size;
        let end = ((shard + 1) * self.shard_size).min(self.cell_count);
        start..end
    }
}

/// An incremental writer of one `ld-runner/report/v3` document.
///
/// Composes the JSON fragments [`crate::report`] builds (config, cells,
/// summary, perf) at the nesting depths a whole-document render would use,
/// so the bytes do not depend on how the cells were split into shards.
pub struct ReportStream<W: Write> {
    sink: W,
    offset: u64,
    digest: u64,
    cells_written: usize,
}

impl<W: Write> ReportStream<W> {
    /// Writes the document header (schema, scenario, config, the opening of
    /// the `cells` array) to `sink`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn begin(sink: W, scenario: &str, config: &SweepConfig) -> std::io::Result<Self> {
        let mut stream = ReportStream {
            sink,
            offset: 0,
            digest: FNV_OFFSET,
            cells_written: 0,
        };
        let head = Json::object()
            .set("schema", SCHEMA)
            .set("scenario", scenario)
            .set("config", config_json(config));
        let mut text = head.render();
        // The rendered header ends with `\n}\n`; the document continues
        // instead with the cells array.
        text.truncate(text.len() - 3);
        text.push_str(",\n  \"cells\": [");
        stream.emit(&text)?;
        Ok(stream)
    }

    /// Reconstructs a writer mid-document (resume): `sink` must already be
    /// positioned at `offset`, with `digest` the FNV-1a of the preceding
    /// bytes and `cells_written` the number of cells they contain.
    pub fn resume_at(sink: W, offset: u64, digest: u64, cells_written: usize) -> Self {
        ReportStream {
            sink,
            offset,
            digest,
            cells_written,
        }
    }

    /// Appends one shard's cells to the `cells` array and flushes, so a
    /// kill after this call tears nothing the checkpoint will point into.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_cells(&mut self, cells: &[CellResult]) -> std::io::Result<()> {
        let fragments: Vec<String> = cells.iter().map(render_cell_fragment).collect();
        self.write_rendered_cells(&fragments)
    }

    /// Appends already-rendered cell fragments (depth-2, as produced by
    /// [`execute_shard`]) with exactly the separators [`ReportStream::write_cells`]
    /// would emit — the merge entry point of the dispatch coordinator,
    /// byte-identical to rendering the cells locally.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_rendered_cells<S: AsRef<str>>(&mut self, fragments: &[S]) -> std::io::Result<()> {
        let mut text = String::new();
        for fragment in fragments {
            text.push_str(if self.cells_written == 0 {
                "\n    "
            } else {
                ",\n    "
            });
            text.push_str(fragment.as_ref());
            self.cells_written += 1;
        }
        self.emit(&text)?;
        self.sink.flush()
    }

    /// Closes the `cells` array and writes the trailing `summary` (and,
    /// when given, `perf`) objects plus the document close.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn finish(mut self, summary: Json, perf: Option<Json>) -> std::io::Result<W> {
        let mut text = String::new();
        // An empty cells array must render exactly as `[]` does inline.
        text.push_str(if self.cells_written == 0 {
            "]"
        } else {
            "\n  ]"
        });
        text.push_str(",\n  \"summary\": ");
        summary.write_fragment(&mut text, 1);
        if let Some(perf) = perf {
            text.push_str(",\n  \"perf\": ");
            perf.write_fragment(&mut text, 1);
        }
        text.push_str("\n}\n");
        self.emit(&text)?;
        self.sink.flush()?;
        Ok(self.sink)
    }

    /// Bytes written so far.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// FNV-1a digest of the bytes written so far.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    fn emit(&mut self, text: &str) -> std::io::Result<()> {
        self.sink.write_all(text.as_bytes())?;
        self.digest = fnv1a(self.digest, text.as_bytes());
        self.offset += text.len() as u64;
        Ok(())
    }
}

/// Renders one cell as the depth-2 JSON fragment the `cells` array holds
/// (no separators).
fn render_cell_fragment(cell: &CellResult) -> String {
    let mut fragment = String::new();
    cell_json(cell).write_fragment(&mut fragment, 2);
    fragment
}

/// One shard's cells rendered for the report, with their tally: what the
/// report sink appends, whichever source ran the shard.  The local driver
/// builds it from its results with [`ShardCells::tally`]; a `POST /shards`
/// worker builds it the same way ([`execute_shard`]) and ships it to the
/// dispatch coordinator, which parses it back off the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardCells {
    /// Shard index in the layout.
    pub shard: usize,
    /// Depth-2 cell fragments, in global cell-index order.
    pub fragments: Vec<String>,
    /// Passing cells.
    pub passed: usize,
    /// Failing (completed, wrong verdict) cells.
    pub failed: usize,
    /// Panicked cells.
    pub panicked: usize,
    /// Budget-exhausted cells.
    pub exhausted: usize,
    /// Per-cell wall times, micros (feeds the checkpoint and the `perf`
    /// footer, never the deterministic report bytes).
    pub wall_micros: Vec<u64>,
    /// `(cell id, verdict-or-panic)` of every non-passing cell.
    pub failures: Vec<(String, String)>,
}

impl ShardCells {
    /// Renders and tallies shard `shard`'s results: the one place a cell is
    /// counted as passed, failed, panicked or exhausted.
    pub fn tally(shard: usize, results: &[CellResult]) -> ShardCells {
        let mut out = ShardCells {
            shard,
            fragments: Vec::with_capacity(results.len()),
            passed: 0,
            failed: 0,
            panicked: 0,
            exhausted: 0,
            wall_micros: Vec::with_capacity(results.len()),
            failures: Vec::new(),
        };
        for cell in results {
            if cell.passed() {
                out.passed += 1;
            } else if cell.panicked() {
                out.panicked += 1;
            } else {
                out.failed += 1;
            }
            if cell.exhausted() {
                out.exhausted += 1;
            }
            if !cell.passed() {
                let what = match &cell.outcome {
                    Ok(outcome) => outcome.verdict.clone(),
                    Err(message) => format!("panic: {message}"),
                };
                out.failures.push((cell.spec.id.clone(), what));
            }
            out.wall_micros.push(cell.wall.as_micros() as u64);
            out.fragments.push(render_cell_fragment(cell));
        }
        out
    }
}

/// Runs the cells of shard `shard` in index order.  Per-cell seeds derive
/// from the *global* index, so a shard's results do not depend on where or
/// how often it runs.
fn run_shard(
    cells: &[PlannedCell],
    config: &SweepConfig,
    layout: ShardLayout,
    shard: usize,
) -> Vec<CellResult> {
    layout
        .shard_range(shard)
        .map(|index| run_cell(&cells[index], index, config))
        .collect()
}

/// Executes one shard of `cells` and renders it for transport — the entry
/// point the `POST /shards` worker endpoint drives.  The fragments are
/// byte-identical to what a local [`run`] would stream for the same shard.
pub fn execute_shard(
    cells: &[PlannedCell],
    config: &SweepConfig,
    layout: ShardLayout,
    shard: usize,
) -> ShardCells {
    ShardCells::tally(shard, &run_shard(cells, config, layout, shard))
}

/// One completed shard's checkpoint record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRecord {
    /// Shard index.
    pub shard: usize,
    /// Cells the shard contained.
    pub cells: usize,
    /// Passing cells in the shard.
    pub passed: usize,
    /// Failing (completed, wrong verdict) cells in the shard.
    pub failed: usize,
    /// Panicked cells in the shard.
    pub panicked: usize,
    /// Budget-exhausted cells in the shard.
    pub exhausted: usize,
    /// Report byte offset after this shard was written.
    pub end_offset: u64,
    /// FNV-1a digest of the report's first `end_offset` bytes.
    pub digest: u64,
    /// Cumulative sweep wall time (across resumed runs) at this shard.
    pub elapsed_micros: u64,
    /// Cumulative cache counters at this shard.
    pub cache: CacheStats,
    /// Per-cell wall times in this shard, micros (what lets a resumed
    /// run's `perf` section still cover every cell).
    pub wall_micros: Vec<u64>,
}

/// The parsed checkpoint sidecar: everything needed to validate and
/// continue an interrupted streaming sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// Scenario name (resolved back through the registry on resume).
    pub scenario: String,
    /// Whether the report is a deterministic document (no `perf` footer).
    pub deterministic: bool,
    /// The sweep configuration, including `threads` as originally run.
    pub config: SweepConfig,
    /// The planned cell count (resume re-plans and cross-checks it).
    pub cell_count: usize,
    /// Total shards in the plan.
    pub shard_count: usize,
    /// Report byte offset after the header.
    pub header_offset: u64,
    /// FNV-1a digest of the header bytes.
    pub header_digest: u64,
    /// Completed shards, in order.
    pub shards: Vec<ShardRecord>,
}

impl Checkpoint {
    /// The sidecar path for `report`: the report path with `.ckpt`
    /// appended (`sweep.json` → `sweep.json.ckpt`).
    pub fn path_for(report: &Path) -> PathBuf {
        let mut name = report.file_name().unwrap_or_default().to_os_string();
        name.push(".ckpt");
        report.with_file_name(name)
    }

    /// The header line (written once, before any shard completes).
    pub fn render_header(&self) -> String {
        let mut line = Json::object()
            .set("schema", CKPT_SCHEMA)
            .set("scenario", self.scenario.as_str())
            .set("deterministic", self.deterministic)
            .set("threads", self.config.threads)
            .set("cell_count", self.cell_count)
            .set("shard_count", self.shard_count)
            .set("header_offset", self.header_offset)
            .set("header_digest", self.header_digest)
            .set("config", config_json(&self.config))
            .render_compact();
        line.push('\n');
        line
    }

    /// One shard line (appended after the shard's report bytes are
    /// flushed).
    pub fn render_shard(record: &ShardRecord) -> String {
        let mut line = Json::object()
            .set("shard", record.shard)
            .set("cells", record.cells)
            .set("passed", record.passed)
            .set("failed", record.failed)
            .set("panicked", record.panicked)
            .set("exhausted", record.exhausted)
            .set("end_offset", record.end_offset)
            .set("digest", record.digest)
            .set("elapsed_micros", record.elapsed_micros)
            .set("cache_hits", record.cache.hits)
            .set("cache_misses", record.cache.misses)
            .set("cache_entries", record.cache.entries)
            .set(
                "wall_micros",
                Json::Arr(record.wall_micros.iter().map(|&w| Json::U64(w)).collect()),
            )
            .render_compact();
        line.push('\n');
        line
    }

    /// Parses a sidecar file.  A torn final line (the kill arrived mid-
    /// append) is ignored; the shard it described re-runs on resume.
    ///
    /// # Errors
    ///
    /// Returns a message on a malformed header, an unknown sidecar schema,
    /// or out-of-order shard records.
    pub fn parse(text: &str) -> Result<Checkpoint, String> {
        let mut lines = text.lines();
        let header = lines.next().ok_or("empty checkpoint file")?;
        let header = Json::parse(header).map_err(|e| format!("checkpoint header: {e}"))?;
        let schema = header
            .get("schema")
            .and_then(Json::as_str)
            .ok_or("checkpoint missing 'schema'")?;
        if schema != CKPT_SCHEMA {
            return Err(format!("unknown checkpoint schema '{schema}'"));
        }
        let need = |key: &str| {
            header
                .get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("checkpoint missing '{key}'"))
        };
        let config_doc = header.get("config").ok_or("checkpoint missing 'config'")?;
        let config_u64 = |key: &str| {
            config_doc
                .get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("checkpoint config missing '{key}'"))
        };
        let config = SweepConfig {
            max_n: config_u64("max_n")? as usize,
            threads: need("threads")? as usize,
            seed: config_u64("seed")?,
            radius: config_doc
                .get("radius")
                .and_then(Json::as_u64)
                .map(|r| r as usize),
            node_budget: config_doc.get("node_budget").and_then(Json::as_u64),
            view_budget: config_doc.get("view_budget").and_then(Json::as_u64),
            shard_size: config_u64("shard_size")? as usize,
        };
        let mut checkpoint = Checkpoint {
            scenario: header
                .get("scenario")
                .and_then(Json::as_str)
                .ok_or("checkpoint missing 'scenario'")?
                .to_string(),
            deterministic: header
                .get("deterministic")
                .and_then(Json::as_bool)
                .ok_or("checkpoint missing 'deterministic'")?,
            config,
            cell_count: need("cell_count")? as usize,
            shard_count: need("shard_count")? as usize,
            header_offset: need("header_offset")?,
            header_digest: need("header_digest")?,
            shards: Vec::new(),
        };
        let rest: Vec<&str> = lines.filter(|l| !l.trim().is_empty()).collect();
        for (i, line) in rest.iter().enumerate() {
            let doc = match Json::parse(line) {
                Ok(doc) => doc,
                // A torn trailing append is expected after a kill; anything
                // torn *before* the end means the file is corrupt.
                Err(_) if i + 1 == rest.len() => break,
                Err(e) => return Err(format!("checkpoint shard line {i}: {e}")),
            };
            let field = |key: &str| {
                doc.get(key)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("checkpoint shard line {i} missing '{key}'"))
            };
            let record = ShardRecord {
                shard: field("shard")? as usize,
                cells: field("cells")? as usize,
                passed: field("passed")? as usize,
                failed: field("failed")? as usize,
                panicked: field("panicked")? as usize,
                exhausted: field("exhausted")? as usize,
                end_offset: field("end_offset")?,
                digest: field("digest")?,
                elapsed_micros: field("elapsed_micros")?,
                cache: CacheStats {
                    hits: field("cache_hits")?,
                    misses: field("cache_misses")?,
                    entries: field("cache_entries")?,
                },
                wall_micros: doc
                    .get("wall_micros")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| format!("checkpoint shard line {i} missing 'wall_micros'"))?
                    .iter()
                    .map(|w| w.as_u64().unwrap_or(0))
                    .collect(),
            };
            if record.shard != checkpoint.shards.len() {
                return Err(format!(
                    "checkpoint shard records out of order: expected {}, found {}",
                    checkpoint.shards.len(),
                    record.shard
                ));
            }
            checkpoint.shards.push(record);
        }
        Ok(checkpoint)
    }
}

/// Options for a streaming run beyond the [`SweepConfig`].
#[derive(Debug, Clone, Default)]
pub struct StreamOptions {
    /// Write the deterministic document (no `perf` footer) — the form CI
    /// byte-diffs across thread counts and kill/resume boundaries.
    pub deterministic: bool,
    /// Stop (without a footer, leaving the checkpoint behind) after this
    /// many shards have been written *by this process* — a deterministic
    /// stand-in for a mid-sweep kill, used by the resume tests.
    pub max_shards: Option<usize>,
    /// Stream a CSV rendering alongside the JSON report.  CSV output is
    /// not checkpointed: an interrupted run's partial CSV is simply
    /// overwritten by a fresh `run`, and `resume` does not extend it.
    pub csv: Option<PathBuf>,
}

/// What a streaming run (or resume) observed, cumulatively across the
/// original run and every resume.
#[derive(Debug, Clone)]
pub struct StreamSummary {
    /// Scenario name.
    pub scenario: String,
    /// The configuration (as run by *this* process: `threads` may differ
    /// from the interrupted run's).
    pub config: SweepConfig,
    /// Workers that ran this process's shards: the local pipeline's
    /// threads (at most `config.threads`, one for a one-shard plan), or a
    /// dispatch's worker daemons.
    pub workers: usize,
    /// Total planned cells.
    pub cell_count: usize,
    /// Cells executed by this process (the rest were checkpointed).
    pub cells_run: usize,
    /// Passing cells, cumulative.
    pub passed: usize,
    /// Failing cells, cumulative.
    pub failed: usize,
    /// Panicked cells, cumulative.
    pub panicked: usize,
    /// Budget-exhausted cells, cumulative.
    pub exhausted: usize,
    /// Shards written, cumulative.
    pub shards_written: usize,
    /// Total shards in the plan.
    pub shard_count: usize,
    /// `true` when the footer was written and the checkpoint removed;
    /// `false` when `max_shards` stopped the run early.
    pub completed: bool,
    /// Wall time of this process's portion of the sweep.
    pub total_wall: Duration,
    /// Wall time of the whole sweep, summed across the original run and
    /// every resume (equals [`StreamSummary::total_wall`] for a fresh run).
    pub cumulative_wall: Duration,
    /// Cache counters accumulated by this process.
    pub cache: CacheStats,
    /// Cache counters summed across every contributing process.
    pub cumulative_cache: CacheStats,
    /// `(cell id, verdict-or-panic)` of every non-passing cell this
    /// process ran, for console reporting.
    pub failures: Vec<(String, String)>,
}

impl StreamSummary {
    /// The flat perf snapshot (`ldx run --bench-json`): scenario, scale,
    /// wall time, throughput and cache effectiveness in one object.
    pub fn bench_snapshot_json(&self) -> String {
        Json::object()
            .set("bench", "ldx-sweep")
            .set("scenario", self.scenario.as_str())
            .set("cells", self.cell_count)
            .set("max_n", self.config.max_n)
            .set("threads", self.workers)
            .set("seed", self.config.seed)
            .set("passed", self.passed)
            .set("failed", self.failed)
            .set("panicked", self.panicked)
            .set("exhausted", self.exhausted)
            .set("total_wall_micros", self.cumulative_wall.as_micros() as u64)
            .set(
                "cells_per_second",
                if self.cumulative_wall.as_secs_f64() > 0.0 {
                    self.cell_count as f64 / self.cumulative_wall.as_secs_f64()
                } else {
                    0.0
                },
            )
            .set("cache_hits", self.cumulative_cache.hits)
            .set("cache_misses", self.cumulative_cache.misses)
            .set("cache_hit_rate", self.cumulative_cache.hit_rate())
            .render()
    }
}

/// The one writer of a sweep's persisted state: the report stream, its
/// checkpoint sidecar and the running totals.  Both shard sources write
/// through it — the local pipeline ([`run`], [`resume`]) and the dispatch
/// coordinator's merge of remote shards — so a report's bytes, its
/// checkpoint lines and its summary do not depend on where the shards ran.
///
/// [`ReportSink::create`] writes the report and checkpoint headers,
/// [`ReportSink::append`] writes one shard (in shard order) and its
/// checkpoint record, and [`ReportSink::finish`] writes the footer once
/// every shard is in and removes the checkpoint.  A sink dropped before
/// `finish` leaves a resumable report prefix and checkpoint behind.
pub struct ReportSink<'io> {
    io: &'io dyn SpoolIo,
    path: PathBuf,
    stream: ReportStream<Box<dyn SpoolFile>>,
    ckpt_file: Box<dyn SpoolFile>,
    deterministic: bool,
    started: Instant,
    /// Per-cell wall times of every shard written, for the `perf` footer.
    walls: Vec<u64>,
    /// The running totals; `finish` completes and returns them.
    totals: StreamSummary,
}

impl<'io> ReportSink<'io> {
    /// Creates the report at `path` and its checkpoint sidecar, and writes
    /// both headers.  `deterministic` drops the `perf` footer.
    ///
    /// # Errors
    ///
    /// Returns a message on I/O failures.
    pub fn create(
        io: &'io dyn SpoolIo,
        path: &Path,
        scenario: &str,
        config: &SweepConfig,
        cell_count: usize,
        deterministic: bool,
    ) -> Result<Self, String> {
        let file = io
            .create(path)
            .map_err(|e| format!("creating {}: {e}", path.display()))?;
        let stream = ReportStream::begin(file, scenario, config)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        let checkpoint = Checkpoint {
            scenario: scenario.to_string(),
            deterministic,
            config: config.clone(),
            cell_count,
            shard_count: ShardLayout::new(cell_count, config.shard_size).shard_count(),
            header_offset: stream.offset(),
            header_digest: stream.digest(),
            shards: Vec::new(),
        };
        let ckpt_path = Checkpoint::path_for(path);
        let mut ckpt_file = io
            .create(&ckpt_path)
            .map_err(|e| format!("creating {}: {e}", ckpt_path.display()))?;
        ckpt_file
            .write_all(checkpoint.render_header().as_bytes())
            .and_then(|()| ckpt_file.flush())
            .map_err(|e| format!("writing {}: {e}", ckpt_path.display()))?;
        Ok(Self::open(io, path, stream, ckpt_file, checkpoint))
    }

    /// Reopens the interrupted report at `path` where `checkpoint` left
    /// it: verifies the report prefix against the checkpoint digest
    /// (streamed in fixed-size chunks, so resume stays O(shard), not
    /// O(report)), drops any bytes past it (a kill can land mid-append),
    /// and restores the totals of the shards already written.  `config`
    /// is the resumed run's (its `threads` may differ).
    fn reopen(
        io: &'io dyn SpoolIo,
        path: &Path,
        checkpoint: Checkpoint,
        config: SweepConfig,
    ) -> Result<Self, String> {
        let (end_offset, digest) = checkpoint.shards.last().map_or(
            (checkpoint.header_offset, checkpoint.header_digest),
            |record| (record.end_offset, record.digest),
        );
        let mut file = io
            .open_read_write(path)
            .map_err(|e| format!("opening {}: {e}", path.display()))?;
        let mut prefix_digest = FNV_OFFSET;
        let mut remaining = end_offset;
        let mut chunk = [0u8; 64 * 1024];
        while remaining > 0 {
            let take = remaining.min(chunk.len() as u64) as usize;
            file.read_exact(&mut chunk[..take]).map_err(|e| {
                format!("report {} shorter than its checkpoint: {e}", path.display())
            })?;
            prefix_digest = fnv1a(prefix_digest, &chunk[..take]);
            remaining -= take as u64;
        }
        if prefix_digest != digest {
            return Err(format!(
                "report {} does not match its checkpoint (digest mismatch); \
                 it was edited or belongs to a different run",
                path.display()
            ));
        }
        file.truncate_to(end_offset)
            .map_err(|e| format!("truncating {}: {e}", path.display()))?;
        let cells_done: usize = checkpoint.shards.iter().map(|s| s.cells).sum();
        let stream = ReportStream::resume_at(file, end_offset, digest, cells_done);
        let ckpt_path = Checkpoint::path_for(path);
        let ckpt_file = io
            .open_append(&ckpt_path)
            .map_err(|e| format!("opening {}: {e}", ckpt_path.display()))?;
        let checkpoint = Checkpoint {
            config,
            ..checkpoint
        };
        Ok(Self::open(io, path, stream, ckpt_file, checkpoint))
    }

    /// The sink over an open report and checkpoint, with the totals of the
    /// shards `checkpoint` records already written.
    fn open(
        io: &'io dyn SpoolIo,
        path: &Path,
        stream: ReportStream<Box<dyn SpoolFile>>,
        ckpt_file: Box<dyn SpoolFile>,
        checkpoint: Checkpoint,
    ) -> Self {
        let shards = &checkpoint.shards;
        let sum = |count: fn(&ShardRecord) -> usize| shards.iter().map(count).sum();
        let last = shards.last();
        let prior_wall = Duration::from_micros(last.map_or(0, |record| record.elapsed_micros));
        let totals = StreamSummary {
            scenario: checkpoint.scenario,
            config: checkpoint.config,
            workers: 0,
            cell_count: checkpoint.cell_count,
            cells_run: 0,
            passed: sum(|record| record.passed),
            failed: sum(|record| record.failed),
            panicked: sum(|record| record.panicked),
            exhausted: sum(|record| record.exhausted),
            shards_written: shards.len(),
            shard_count: checkpoint.shard_count,
            completed: false,
            total_wall: Duration::ZERO,
            // Until `finish`, the cumulative figures hold the earlier
            // processes' share alone.
            cumulative_wall: prior_wall,
            cache: CacheStats::default(),
            cumulative_cache: last.map_or_else(CacheStats::default, |record| record.cache),
            failures: Vec::new(),
        };
        ReportSink {
            io,
            path: path.to_path_buf(),
            stream,
            ckpt_file,
            deterministic: checkpoint.deterministic,
            started: Instant::now(),
            walls: shards
                .iter()
                .flat_map(|r| r.wall_micros.iter().copied())
                .collect(),
            totals,
        }
    }

    /// The next shard the sink expects: shards are appended in order.
    pub fn next_shard(&self) -> usize {
        self.totals.shards_written
    }

    /// Appends shard [`ReportSink::next_shard`] to the report, flushes it,
    /// and records it in the checkpoint.  `cache` is the counters of this
    /// run's plan so far (zero when the shard ran elsewhere).
    ///
    /// # Errors
    ///
    /// Returns a message on I/O failures.
    pub fn append(&mut self, cells: &ShardCells, cache: CacheStats) -> Result<(), String> {
        debug_assert_eq!(cells.shard, self.next_shard(), "shards append in order");
        self.stream
            .write_rendered_cells(&cells.fragments)
            .map_err(|e| format!("writing {}: {e}", self.path.display()))?;
        let totals = &mut self.totals;
        totals.cache = cache;
        let record = ShardRecord {
            shard: cells.shard,
            cells: cells.fragments.len(),
            passed: cells.passed,
            failed: cells.failed,
            panicked: cells.panicked,
            exhausted: cells.exhausted,
            end_offset: self.stream.offset(),
            digest: self.stream.digest(),
            elapsed_micros: (totals.cumulative_wall + self.started.elapsed()).as_micros() as u64,
            cache: totals.cumulative_cache.merged(&cache),
            wall_micros: cells.wall_micros.clone(),
        };
        let ckpt_path = Checkpoint::path_for(&self.path);
        self.ckpt_file
            .write_all(Checkpoint::render_shard(&record).as_bytes())
            .and_then(|()| self.ckpt_file.flush())
            .map_err(|e| format!("writing {}: {e}", ckpt_path.display()))?;
        totals.passed += cells.passed;
        totals.failed += cells.failed;
        totals.panicked += cells.panicked;
        totals.exhausted += cells.exhausted;
        totals.failures.extend(cells.failures.iter().cloned());
        totals.cells_run += record.cells;
        totals.shards_written += 1;
        self.walls.extend_from_slice(&cells.wall_micros);
        Ok(())
    }

    /// Writes the footer and removes the checkpoint when every shard is
    /// in (otherwise leaves both files resumable), and reports the sweep.
    /// `workers` is what ran this process's shards; it goes into the
    /// `perf` footer and the summary.
    ///
    /// # Errors
    ///
    /// Returns a message on I/O failures.
    pub fn finish(self, workers: usize) -> Result<StreamSummary, String> {
        let mut totals = self.totals;
        totals.workers = workers;
        totals.total_wall = self.started.elapsed();
        totals.cumulative_wall += totals.total_wall;
        totals.cumulative_cache = totals.cumulative_cache.merged(&totals.cache);
        totals.completed = totals.shards_written == totals.shard_count;
        if totals.completed {
            let summary = summary_json(
                totals.cell_count,
                totals.passed,
                totals.failed,
                totals.panicked,
                totals.exhausted,
            );
            let perf = (!self.deterministic).then(|| {
                perf_json(
                    workers,
                    totals.cumulative_wall,
                    &self.walls,
                    &totals.cumulative_cache,
                )
            });
            self.stream
                .finish(summary, perf)
                .map_err(|e| format!("writing {}: {e}", self.path.display()))?;
            let ckpt_path = Checkpoint::path_for(&self.path);
            self.io
                .remove_file(&ckpt_path)
                .map_err(|e| format!("removing {}: {e}", ckpt_path.display()))?;
        }
        Ok(totals)
    }
}

/// Runs `scenario` as a streaming sharded sweep, writing the v3 report to
/// `path` (and the checkpoint sidecar next to it).
///
/// # Errors
///
/// Returns a message on configuration, planning or I/O failures.
pub fn run(
    scenario: &dyn Scenario,
    config: &SweepConfig,
    path: &Path,
    opts: &StreamOptions,
) -> Result<StreamSummary, String> {
    run_with_io(&RealIo, scenario, config, path, opts)
}

/// [`run`] with the report/checkpoint I/O routed through `io` — the entry
/// point of the fault-injection suite, which drives every persisted byte
/// through a scripted [`crate::spool_io::FaultIo`].
///
/// # Errors
///
/// Returns a message on configuration, planning or I/O failures.
pub fn run_with_io(
    io: &dyn SpoolIo,
    scenario: &dyn Scenario,
    config: &SweepConfig,
    path: &Path,
    opts: &StreamOptions,
) -> Result<StreamSummary, String> {
    config.validate().map_err(|e| e.to_string())?;
    let plan = scenario.plan(config)?;
    let sink = ReportSink::create(
        io,
        path,
        scenario.name(),
        config,
        plan.cells.len(),
        opts.deterministic,
    )?;
    let csv = match &opts.csv {
        Some(csv_path) => {
            let mut csv_file = File::create(csv_path)
                .map_err(|e| format!("creating {}: {e}", csv_path.display()))?;
            csv_file
                .write_all(csv_header(!opts.deterministic).as_bytes())
                .map_err(|e| format!("writing {}: {e}", csv_path.display()))?;
            Some(csv_file)
        }
        None => None,
    };
    drive(sink, &plan, config, opts.max_shards, csv)
}

/// Continues an interrupted streaming sweep from its checkpoint sidecar.
/// `threads` overrides the interrupted run's worker count when given; the
/// report content is identical either way.
///
/// # Errors
///
/// Returns a message when the checkpoint is missing (the run completed, or
/// never started), when the report prefix fails digest verification, when
/// the scenario no longer plans the checkpointed cell count, or on I/O
/// failures.
pub fn resume(
    path: &Path,
    threads: Option<usize>,
    max_shards: Option<usize>,
) -> Result<StreamSummary, String> {
    resume_with_io(&RealIo, path, threads, max_shards)
}

/// [`resume`] with the interrupted scenario supplied by the caller instead
/// of looked up in the built-in registry — the resume path for sweeps whose
/// scenario came from a DSL document (see [`crate::dsl`]), which the
/// registry cannot reconstruct.  The scenario's name must match the one the
/// checkpoint recorded.
///
/// # Errors
///
/// As [`resume`], plus a message when `scenario`'s name disagrees with the
/// checkpoint.
pub fn resume_with_scenario(
    path: &Path,
    threads: Option<usize>,
    max_shards: Option<usize>,
    scenario: &dyn Scenario,
) -> Result<StreamSummary, String> {
    resume_impl(&RealIo, path, threads, max_shards, Some(scenario))
}

/// [`resume`] with the report/checkpoint I/O routed through `io`; see
/// [`run_with_io`].
///
/// # Errors
///
/// As [`resume`].
pub fn resume_with_io(
    io: &dyn SpoolIo,
    path: &Path,
    threads: Option<usize>,
    max_shards: Option<usize>,
) -> Result<StreamSummary, String> {
    resume_impl(io, path, threads, max_shards, None)
}

/// The shared resume core: `scenario` overrides the registry lookup when
/// the caller already holds the interrupted scenario (a parsed DSL
/// document); `None` resolves the checkpointed name among the built-ins.
fn resume_impl(
    io: &dyn SpoolIo,
    path: &Path,
    threads: Option<usize>,
    max_shards: Option<usize>,
    scenario: Option<&dyn Scenario>,
) -> Result<StreamSummary, String> {
    let ckpt_path = Checkpoint::path_for(path);
    let text = io.read_to_string(&ckpt_path).map_err(|e| {
        format!(
            "no checkpoint at {} ({e}); the sweep may already be complete",
            ckpt_path.display()
        )
    })?;
    let checkpoint = Checkpoint::parse(&text)?;
    let mut config = checkpoint.config.clone();
    if let Some(threads) = threads {
        config.threads = threads;
    }
    config.validate().map_err(|e| e.to_string())?;
    let registry_scenario =
        match scenario {
            Some(supplied) => {
                if supplied.name() != checkpoint.scenario {
                    return Err(format!(
                        "scenario '{}' does not match '{}' in the checkpoint",
                        supplied.name(),
                        checkpoint.scenario
                    ));
                }
                None
            }
            None => Some(crate::scenarios::find(&checkpoint.scenario).ok_or_else(|| {
                format!("unknown scenario '{}' in checkpoint", checkpoint.scenario)
            })?),
        };
    let scenario: &dyn Scenario = match (&registry_scenario, scenario) {
        (Some(found), _) => found.as_ref(),
        (None, Some(supplied)) => supplied,
        (None, None) => unreachable!("one branch above always yields a scenario"),
    };
    let plan = scenario.plan(&config)?;
    if plan.cells.len() != checkpoint.cell_count {
        return Err(format!(
            "scenario '{}' now plans {} cells but the checkpoint recorded {}; \
             refusing to resume across a plan change",
            checkpoint.scenario,
            plan.cells.len(),
            checkpoint.cell_count
        ));
    }
    let layout = ShardLayout::new(plan.cells.len(), config.shard_size);
    if layout.shard_count() != checkpoint.shard_count {
        return Err(format!(
            "shard layout changed: {} shards planned, {} checkpointed",
            layout.shard_count(),
            checkpoint.shard_count
        ));
    }
    let sink = ReportSink::reopen(io, path, checkpoint, config.clone())?;
    drive(sink, &plan, &config, max_shards, None)
}

/// The local shard source behind [`run`] and [`resume`]: executes shards
/// from the sink's next one on (stopping after `max_shards` when given),
/// appends each to `sink` and its CSV rows to `csv`, and finishes the sink.
fn drive(
    mut sink: ReportSink<'_>,
    plan: &Plan,
    config: &SweepConfig,
    max_shards: Option<usize>,
    mut csv: Option<File>,
) -> Result<StreamSummary, String> {
    let layout = ShardLayout::new(plan.cells.len(), config.shard_size);
    let first_shard = sink.next_shard();
    let shard_count = sink.totals.shard_count;
    let stop_shard = max_shards.map_or(shard_count, |m| (first_shard + m).min(shard_count));
    let workers = run_shards(
        &plan.cells,
        config,
        layout,
        first_shard,
        stop_shard,
        &mut |shard, results: Vec<CellResult>| {
            sink.append(&ShardCells::tally(shard, &results), plan.cache_stats())?;
            if let Some(csv_file) = csv.as_mut() {
                let rows: String = results
                    .iter()
                    .map(|cell| csv_row(&sink.totals.scenario, cell, !sink.deterministic))
                    .collect();
                csv_file
                    .write_all(rows.as_bytes())
                    .map_err(|e| format!("writing csv: {e}"))?;
            }
            Ok(())
        },
    )?;
    sink.finish(workers)
}

/// Executes shards `first_shard..stop_shard` over the configured worker
/// count, invoking `emit` with each shard's results **in shard order** on
/// the calling thread, and returns the number of workers that ran them.
///
/// Workers claim shard indices from a shared counter, but a claim gate
/// keeps every claim within a fixed window of the last emitted shard, and
/// the result channel is bounded — so shards in flight (executing, queued,
/// or held for reordering) never exceed the window, whatever the shard
/// cost skew.  With one effective worker (one thread asked for, or one
/// shard to run) the calling thread runs shards directly; the emitted bytes
/// are identical either way.
pub(crate) fn run_shards(
    cells: &[PlannedCell],
    config: &SweepConfig,
    layout: ShardLayout,
    first_shard: usize,
    stop_shard: usize,
    emit: &mut dyn FnMut(usize, Vec<CellResult>) -> Result<(), String>,
) -> Result<usize, String> {
    // Shards never outnumber cells, so clamping by the shard count also
    // clamps by the cell count.
    let workers = effective_workers(config.threads, stop_shard.saturating_sub(first_shard));
    if workers == 1 {
        for shard in first_shard..stop_shard {
            emit(shard, run_shard(cells, config, layout, shard))?;
        }
    } else {
        run_shards_sync::<StdSync, _>(
            &|shard| run_shard(cells, config, layout, shard),
            first_shard,
            stop_shard,
            workers,
            workers * 2,
            emit,
        )?;
    }
    Ok(workers)
}

/// The claim-gate/bounded-channel/in-order-writer core of [`run_shards`],
/// generic over the sync facade.  Production monomorphises to plain
/// `std::sync` via [`StdSync`]; the model suite instantiates
/// [`interleave::ModelSync`] to check, under every explored schedule, that
/// shards emit strictly in order, claims stay within `window` of the
/// emitted frontier, and the pipeline never deadlocks — including under
/// injected spurious wakeups of the gate's condvar.
fn run_shards_sync<S, F>(
    run_shard: &F,
    first_shard: usize,
    stop_shard: usize,
    workers: usize,
    window: usize,
    emit: &mut dyn FnMut(usize, Vec<CellResult>) -> Result<(), String>,
) -> Result<(), String>
where
    S: SyncFacade,
    F: Fn(usize) -> Vec<CellResult> + Sync,
{
    let next = S::AtomicUsize::new(first_shard);
    let abort = S::AtomicBool::new(false);
    let gate = (S::Mutex::new(first_shard), S::Condvar::new());
    let (tx, rx) = S::sync_channel::<(usize, Vec<CellResult>)>(window);

    let worker_fns: Vec<_> = (0..workers)
        .map(|_| {
            let tx = tx.clone();
            let (next, abort, gate) = (&next, &abort, &gate);
            move || loop {
                if abort.load(Ordering::Relaxed) {
                    break;
                }
                let shard = next.fetch_add(1, Ordering::Relaxed);
                if shard >= stop_shard {
                    break;
                }
                {
                    let (lock, cvar) = gate;
                    let mut emitted = lock.lock();
                    while shard >= *emitted + window && !abort.load(Ordering::Relaxed) {
                        emitted = cvar.wait(emitted);
                    }
                }
                if abort.load(Ordering::Relaxed) {
                    break;
                }
                if tx.send((shard, run_shard(shard))).is_err() {
                    break;
                }
            }
        })
        .collect();
    drop(tx);

    let emit_error = S::scope_workers(worker_fns, || {
        let mut emit_error: Option<String> = None;
        let mut buffer: BTreeMap<usize, Vec<CellResult>> = BTreeMap::new();
        let mut next_emit = first_shard;
        while next_emit < stop_shard {
            if let Some(results) = buffer.remove(&next_emit) {
                match emit(next_emit, results) {
                    Ok(()) => {
                        next_emit += 1;
                        *gate.0.lock() = next_emit;
                        gate.1.notify_all();
                    }
                    Err(e) => {
                        emit_error = Some(e);
                        break;
                    }
                }
                continue;
            }
            match rx.recv() {
                Ok((shard, results)) => {
                    buffer.insert(shard, results);
                }
                Err(interleave::RecvError) => break,
            }
        }
        // Unblock and drain every worker before the scope joins them.
        abort.store(true, Ordering::Relaxed);
        gate.1.notify_all();
        while rx.recv().is_ok() {}
        emit_error
    });

    match emit_error {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{CellOutcome, CellSpec};
    use crate::executor;
    use crate::scenario::Scenario;
    use std::sync::atomic::AtomicU64;

    /// A scenario whose cells are instant, numerous, and deterministic —
    /// with one panicking cell and one budget-free failure to exercise the
    /// counters.
    struct SynthScenario;

    impl Scenario for SynthScenario {
        fn name(&self) -> &str {
            // Registered name so `resume` can find a real scenario; the
            // synthetic tests below never round-trip through the registry.
            "synth"
        }
        fn description(&self) -> &str {
            "test scenario: deterministic synthetic cells"
        }
        fn plan(&self, config: &SweepConfig) -> Result<Plan, String> {
            let mut plan = Plan::new();
            for i in 0..config.max_n {
                let spec = CellSpec::new(format!("synth/{i}"), [("i", i.to_string())]);
                plan.push(spec, move |seed| {
                    if i == 7 {
                        panic!("synthetic panic {i}");
                    }
                    let verdict = if i == 11 { "reject" } else { "accept" };
                    CellOutcome::new(verdict, i != 11).with_metric("seed_low", (seed % 64) as f64)
                });
            }
            Ok(plan)
        }
    }

    fn temp_path(tag: &str) -> PathBuf {
        static UNIQUE: AtomicU64 = AtomicU64::new(0);
        let n = UNIQUE.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "ld-runner-stream-{}-{tag}-{n}.json",
            std::process::id()
        ))
    }

    fn cleanup(path: &Path) {
        let _ = std::fs::remove_file(path);
        let _ = std::fs::remove_file(Checkpoint::path_for(path));
    }

    fn config(max_n: usize, threads: usize, shard_size: usize) -> SweepConfig {
        SweepConfig {
            max_n,
            threads,
            seed: 41,
            shard_size,
            ..SweepConfig::default()
        }
    }

    #[test]
    fn shard_layout_partitions_exactly() {
        let layout = ShardLayout::new(37, 8);
        assert_eq!(layout.shard_count(), 5);
        assert_eq!(layout.shard_range(0), 0..8);
        assert_eq!(layout.shard_range(4), 32..37);
        let empty = ShardLayout::new(0, 8);
        assert_eq!(empty.shard_count(), 0);
    }

    /// Writing a report shard by shard gives the bytes of writing it in one
    /// go, which is how a [`RunReport`](crate::report::RunReport) renders.
    #[test]
    fn streamed_bytes_equal_the_in_memory_rendering() {
        let config = config(23, 1, 4);
        let report = executor::execute(&SynthScenario, &config).unwrap();

        let mut stream = ReportStream::begin(Vec::new(), "synth", &config).unwrap();
        for chunk in report.cells.chunks(4) {
            stream.write_cells(chunk).unwrap();
        }
        let summary = summary_json(
            report.cells.len(),
            report.passed(),
            report.failed(),
            report.panicked(),
            report.exhausted(),
        );
        let bytes = stream.finish(summary, None).unwrap();
        assert_eq!(
            String::from_utf8(bytes).unwrap(),
            report.deterministic_json()
        );
    }

    #[test]
    fn streamed_empty_cells_array_matches_inline_rendering() {
        let config = config(1, 1, 4);
        let stream = ReportStream::begin(Vec::new(), "synth", &config).unwrap();
        let bytes = stream.finish(summary_json(0, 0, 0, 0, 0), None).unwrap();
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.contains("\"cells\": [],"), "{text}");
        assert!(Json::parse(&text).is_ok());
    }

    /// A one-worker run (shards executed in turn on the calling thread, no
    /// channel or gate) is the reference: the pipelined runs' files and the
    /// in-memory sink's rendering must equal it byte for byte.
    #[test]
    fn streaming_run_matches_in_memory_execute_across_threads() {
        let deterministic = StreamOptions {
            deterministic: true,
            ..StreamOptions::default()
        };
        let mut reference = None;
        for threads in [1, 2, 3] {
            let path = temp_path(&format!("threads{threads}"));
            let summary = run(
                &SynthScenario,
                &config(23, threads, 4),
                &path,
                &deterministic,
            )
            .unwrap();
            assert!(summary.completed);
            assert_eq!(summary.passed, 21);
            assert_eq!(summary.failed, 1);
            assert_eq!(summary.panicked, 1);
            assert_eq!(summary.failures.len(), 2);
            assert!(!Checkpoint::path_for(&path).exists());
            let written = std::fs::read_to_string(&path).unwrap();
            cleanup(&path);
            let reference = reference.get_or_insert(written.clone());
            assert_eq!(&written, reference, "threads = {threads}");
            let in_memory = executor::execute(&SynthScenario, &config(23, threads, 4)).unwrap();
            assert_eq!(
                &in_memory.deterministic_json(),
                reference,
                "in-memory sink, threads = {threads}"
            );
        }
    }

    /// A one-shard plan runs on the calling thread whatever `threads`
    /// asks for, and the summary, the snapshot and `perf.threads` (of the
    /// report file and of the in-memory sink) say so.
    #[test]
    fn a_one_shard_plan_reports_the_one_worker_that_ran_it() {
        let path = temp_path("one-shard");
        let summary = run(
            &SynthScenario,
            &config(3, 4, 4),
            &path,
            &StreamOptions::default(),
        )
        .unwrap();
        assert_eq!((summary.shard_count, summary.workers), (1, 1));
        assert_eq!(summary.config.threads, 4);
        assert!(summary.bench_snapshot_json().contains("\"threads\": 1"));
        let report = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let perf = report.get("perf").unwrap();
        assert_eq!(perf.get("threads").and_then(Json::as_u64), Some(1));
        cleanup(&path);
        // The in-memory sink of the same driver records the same worker.
        let in_memory = crate::executor::execute(&SynthScenario, &config(3, 4, 4)).unwrap();
        let report = Json::parse(&in_memory.to_json()).unwrap();
        let perf = report.get("perf").unwrap();
        assert_eq!(perf.get("threads").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn interrupted_run_leaves_a_valid_prefix_and_checkpoint() {
        let path = temp_path("interrupt");
        let summary = run(
            &SynthScenario,
            &config(23, 2, 4),
            &path,
            &StreamOptions {
                deterministic: true,
                max_shards: Some(3),
                ..StreamOptions::default()
            },
        )
        .unwrap();
        assert!(!summary.completed);
        assert_eq!(summary.shards_written, 3);
        assert_eq!(summary.cells_run, 12);
        let ckpt_path = Checkpoint::path_for(&path);
        let checkpoint = Checkpoint::parse(&std::fs::read_to_string(&ckpt_path).unwrap()).unwrap();
        assert_eq!(checkpoint.shards.len(), 3);
        assert_eq!(checkpoint.cell_count, 23);
        assert_eq!(checkpoint.shard_count, 6);
        // The report file is exactly the checkpointed prefix.
        let bytes = std::fs::read(&path).unwrap();
        let last = checkpoint.shards.last().unwrap();
        assert_eq!(bytes.len() as u64, last.end_offset);
        assert_eq!(fnv1a(FNV_OFFSET, &bytes), last.digest);
        cleanup(&path);
    }

    #[test]
    fn checkpoint_lines_roundtrip_and_tolerate_a_torn_tail() {
        let config = config(23, 2, 4);
        let checkpoint = Checkpoint {
            scenario: "synth".to_string(),
            deterministic: false,
            config: config.clone(),
            cell_count: 23,
            shard_count: 6,
            header_offset: 120,
            header_digest: 999,
            shards: vec![ShardRecord {
                shard: 0,
                cells: 4,
                passed: 4,
                failed: 0,
                panicked: 0,
                exhausted: 0,
                end_offset: 400,
                digest: 77,
                elapsed_micros: 1234,
                cache: CacheStats {
                    hits: 1,
                    misses: 2,
                    entries: 3,
                },
                wall_micros: vec![10, 20, 30, 40],
            }],
        };
        let mut text = checkpoint.render_header();
        text.push_str(&Checkpoint::render_shard(&checkpoint.shards[0]));
        let parsed = Checkpoint::parse(&text).unwrap();
        assert_eq!(parsed, checkpoint);
        assert_eq!(parsed.config, config);

        // A torn final append parses as if the shard never completed.
        let torn = format!("{text}{{\"shard\":1,\"cells\":4,\"pas");
        let parsed = Checkpoint::parse(&torn).unwrap();
        assert_eq!(parsed.shards.len(), 1);

        // A torn *interior* line is corruption, not a kill artefact.
        let corrupt = format!(
            "{}{{\"bad\n{}",
            checkpoint.render_header(),
            text.lines().nth(1).unwrap()
        );
        assert!(Checkpoint::parse(&corrupt).is_err());
    }

    #[test]
    fn kill_and_resume_byte_matches_an_uninterrupted_run() {
        use crate::scenarios::RandomizedSweep;
        let config = SweepConfig {
            max_n: 8,
            threads: 2,
            seed: 13,
            shard_size: 1,
            ..SweepConfig::default()
        };
        let deterministic = StreamOptions {
            deterministic: true,
            ..StreamOptions::default()
        };
        let full = temp_path("full");
        let complete = run(&RandomizedSweep, &config, &full, &deterministic).unwrap();
        assert!(complete.completed && complete.shard_count >= 3);

        let killed = temp_path("killed");
        let partial = run(
            &RandomizedSweep,
            &config,
            &killed,
            &StreamOptions {
                deterministic: true,
                max_shards: Some(2),
                ..StreamOptions::default()
            },
        )
        .unwrap();
        assert!(!partial.completed);
        assert!(Checkpoint::path_for(&killed).exists());

        // Resume on a different thread count: content must not change.
        let resumed = resume(&killed, Some(1), None).unwrap();
        assert!(resumed.completed);
        assert_eq!(resumed.cell_count, complete.cell_count);
        assert_eq!(resumed.passed, complete.passed);
        // Cumulative accounting spans both processes: the resumed portion
        // alone is strictly less than the whole sweep.
        assert!(resumed.cells_run < resumed.cell_count);
        assert!(resumed.cumulative_wall > resumed.total_wall);
        assert!(resumed
            .bench_snapshot_json()
            .contains(&format!("\"cells\": {}", resumed.cell_count)));
        assert_eq!(
            std::fs::read(&full).unwrap(),
            std::fs::read(&killed).unwrap(),
            "resumed report must byte-match the uninterrupted run"
        );
        assert!(!Checkpoint::path_for(&killed).exists());

        // Resuming a finished run reports the absent checkpoint.
        let err = resume(&killed, None, None).unwrap_err();
        assert!(err.contains("complete"), "{err}");
        cleanup(&full);
        cleanup(&killed);
    }

    #[test]
    fn digest_mismatch_refuses_to_resume() {
        use crate::scenarios::RandomizedSweep;
        let path = temp_path("tamper");
        run(
            &RandomizedSweep,
            &SweepConfig {
                max_n: 8,
                threads: 1,
                seed: 13,
                shard_size: 1,
                ..SweepConfig::default()
            },
            &path,
            &StreamOptions {
                deterministic: true,
                max_shards: Some(2),
                ..StreamOptions::default()
            },
        )
        .unwrap();
        // Flip a byte inside the checkpointed prefix.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] = bytes[mid].wrapping_add(1);
        std::fs::write(&path, &bytes).unwrap();
        let err = resume(&path, None, None).unwrap_err();
        assert!(err.contains("digest mismatch"), "{err}");
        cleanup(&path);
    }

    /// Model suite: the claim-gate/bounded-channel/in-order-writer core
    /// under every schedule the explorer reaches.  Checks the three
    /// streaming invariants at once — emits strictly in shard order, no
    /// claim ever runs more than `window` ahead of the emitted frontier,
    /// and the pipeline drains without deadlock.  The gate's `Condvar`
    /// waits are also spurious-wakeup candidates here (see the assertion
    /// on `spurious_injected`), which is the machine-checked form of the
    /// loop-on-predicate audit.
    #[test]
    fn model_shard_pipeline_emits_in_order_within_window() {
        use interleave::ModelSync;
        use std::sync::atomic::AtomicUsize as StdAtomicUsize;

        const WORKERS: usize = 2;
        const WINDOW: usize = WORKERS * 2; // the production 2×workers bound
        const SHARDS: usize = 6; // > window, so the gate actually engages

        let report = interleave::model_with(interleave::Config::with_max_schedules(2000), || {
            // Observation counters (plain std atomics: they record state for
            // assertions but are not scheduling points).
            let emitted_frontier = StdAtomicUsize::new(0);
            let run_shard = |shard: usize| -> Vec<CellResult> {
                let frontier = emitted_frontier.load(Ordering::SeqCst);
                assert!(
                    shard < frontier + WINDOW,
                    "claim gate violated: shard {shard} ran with frontier {frontier}"
                );
                Vec::new()
            };
            let mut next_expect = 0usize;
            let mut emit = |shard: usize, _results: Vec<CellResult>| -> Result<(), String> {
                assert_eq!(shard, next_expect, "writer emitted out of order");
                next_expect += 1;
                emitted_frontier.store(next_expect, Ordering::SeqCst);
                Ok(())
            };
            run_shards_sync::<ModelSync, _>(&run_shard, 0, SHARDS, WORKERS, WINDOW, &mut emit)
                .expect("no emit error in model");
            assert_eq!(next_expect, SHARDS, "writer did not drain every shard");
        });
        assert!(
            report.schedules >= 1000,
            "expected >=1000 distinct schedules, explored {}",
            report.schedules
        );
    }

    /// Model suite: same invariants with the gate cinched to a window of 1,
    /// which forces workers to park on the gate's `Condvar` in essentially
    /// every schedule — so the explorer's spurious-wakeup injection gets
    /// real purchase on the production wait loop (satellite: the
    /// loop-on-predicate audit's regression test).
    #[test]
    fn model_tight_gate_survives_spurious_wakeups() {
        use interleave::ModelSync;
        use std::sync::atomic::AtomicUsize as StdAtomicUsize;

        const WORKERS: usize = 2;
        const WINDOW: usize = 1; // tighter than production: every claim gates
        const SHARDS: usize = 3;

        let report = interleave::model_with(interleave::Config::with_max_schedules(2000), || {
            let emitted_frontier = StdAtomicUsize::new(0);
            let run_shard = |shard: usize| -> Vec<CellResult> {
                let frontier = emitted_frontier.load(Ordering::SeqCst);
                assert!(
                    shard < frontier + WINDOW,
                    "claim gate violated: shard {shard} ran with frontier {frontier}"
                );
                Vec::new()
            };
            let mut next_expect = 0usize;
            let mut emit = |shard: usize, _results: Vec<CellResult>| -> Result<(), String> {
                assert_eq!(shard, next_expect, "writer emitted out of order");
                next_expect += 1;
                emitted_frontier.store(next_expect, Ordering::SeqCst);
                Ok(())
            };
            run_shards_sync::<ModelSync, _>(&run_shard, 0, SHARDS, WORKERS, WINDOW, &mut emit)
                .expect("no emit error in model");
            assert_eq!(next_expect, SHARDS, "writer did not drain every shard");
        });
        assert!(
            report.spurious_injected > 0,
            "exploration never exercised a spurious gate wakeup"
        );
    }

    /// Regression: the gate's wait MUST be loop-on-predicate.  This model
    /// reproduces the bug the audit guards against — an `if`-guarded wait
    /// on the claim gate lets a spurious wakeup run a shard beyond the
    /// window — and asserts the checker catches it.
    #[test]
    fn model_if_guarded_gate_is_caught_by_spurious_wakeup() {
        use interleave::{Condvar as MCondvar, ModelSync, Mutex as MMutex, SyncFacade};
        use std::sync::Arc;

        type M = <ModelSync as SyncFacade>::Mutex<usize>;

        let failure = interleave::check(interleave::Config::default(), || {
            let window = 1usize;
            let gate: Arc<(M, MCondvar)> = Arc::new((MMutex::new(0), MCondvar::new()));
            let gate2 = Arc::clone(&gate);
            let worker = interleave::thread::spawn(move || {
                let shard = 1usize;
                let (lock, cvar) = &*gate2;
                let emitted = lock.lock();
                // BUG (deliberate): `if` instead of `while` — a spurious
                // wakeup proceeds with the predicate still false.
                let emitted = if shard >= *emitted + window {
                    cvar.wait(emitted)
                } else {
                    emitted
                };
                assert!(
                    shard < *emitted + window,
                    "claim gate violated after wakeup"
                );
            });
            {
                let (lock, cvar) = &*gate;
                *lock.lock() = 1; // emit shard 0, advance the frontier
                cvar.notify_all();
            }
            worker.join();
        })
        .expect_err("if-guarded gate wait must be caught");
        assert!(
            failure.message.contains("claim gate violated"),
            "unexpected failure: {failure}"
        );
    }
}
