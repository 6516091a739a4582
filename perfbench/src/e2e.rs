//! The end-to-end run: real `probdb-serve` processes on loopback, driven
//! by at most two client connections, every answer checked afterwards.

use crate::check;
use crate::gen::{Inputs, Kind, Op, Workload, HARD_INTERVAL_S, HARD_TIMEOUT_MS, INGEST_VIEWS};
use crate::net::{Client, Server};
use crate::stats::{mean, median, quantile};
use pdb_core::ProbDb;
use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 21;
/// Wait after the timed phase before CPU, threads and memory are read, so
/// background work the load left behind is counted.
const DRAIN: Duration = Duration::from_secs(1);
/// How long a replica may take to catch up with its primary.
const CATCH_UP: Duration = Duration::from_secs(30);
/// A server is killed, and the run fails, when its resident memory passes
/// this many MB or the timed phase overruns by `OVERRUN`.
const MAX_RSS_MB: f64 = 2048.0;
const OVERRUN: Duration = Duration::from_secs(60);
/// Most blocks of operations a latency percentile is taken over (see
/// `blocked_quantile`).
const BLOCKS: usize = 5;
/// Windows of the timed phase `throughput_ops` is the median over. Four
/// windows of a 20 s run each hold two `hard_deadline` query intervals.
const WINDOWS: usize = 4;
/// Reads of `ingest_views` checked against every database state they
/// could have seen.
const PREFIX_CHECKS: usize = 240;

/// One completed client operation.
pub struct Record {
    pub op: Op,
    pub response: Result<String, String>,
    /// Seconds from the start of the timed phase.
    pub sent: f64,
    pub done: f64,
    /// Client-side latency; for open-loop sends, from the due time.
    pub latency_ms: f64,
    /// How late the generator sent the operation: after its due time
    /// (open loop) or after the previous answer arrived (closed loop).
    pub late_ms: f64,
}

/// Everything one end-to-end run measured.
pub struct RunOutput {
    pub setup_s: Vec<f64>,
    pub records: Vec<Vec<Record>>,
    pub timed_s: f64,
    pub server_cpu_ms: f64,
    pub peak_rss_mb: f64,
    pub threads_after_drain: f64,
    pub scrape: String,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub bound_widths: Vec<f64>,
}

struct Servers {
    primary: Server,
    replica: Option<Server>,
}

impl Servers {
    fn cpu_ms(&self) -> f64 {
        self.primary.cpu_ms() + self.replica.as_ref().map_or(0.0, Server::cpu_ms)
    }
}

fn primary_args(workload: Workload, preload: &Path, data_dir: &Path) -> Vec<String> {
    let mut args = vec!["--preload".to_string(), preload.display().to_string()];
    match workload {
        Workload::ReadCascade => {}
        Workload::IngestViews => {
            args.extend(["--data-dir".into(), data_dir.display().to_string()]);
            args.extend(["--fsync".into(), "always".into()]);
        }
        Workload::HardDeadline => {
            args.extend(["--timeout-ms".into(), HARD_TIMEOUT_MS.to_string()]);
        }
    }
    args
}

/// Tracks attempted and failed operations and keeps the first failures.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }
}

/// Starts the workload's servers with the data set preloaded, defines the
/// views, and waits for the first correct answer.
fn set_up(
    inputs: &Inputs,
    bin: &Path,
    work: &Path,
    probe_expected: &str,
    tally: &mut Tally,
) -> Result<Servers, String> {
    let data_dir = work.join("data");
    let _ = std::fs::remove_dir_all(&data_dir);
    let primary = Server::spawn(
        bin,
        &primary_args(inputs.workload, &work.join("load.pdb"), &data_dir),
        &work.join("primary.log"),
    )?;
    let mut client = primary.connect()?;
    for line in &inputs.define {
        let response = client.request(line)?;
        tally.check(!response.starts_with("error"), || {
            format!("{line} -> {response}")
        });
    }
    let replica = if inputs.workload == Workload::IngestViews {
        let replica = Server::spawn(
            bin,
            &["--replica-of".to_string(), primary.addr.clone()],
            &work.join("replica.log"),
        )?;
        let mut rc = replica.connect()?;
        let start = Instant::now();
        loop {
            let response = rc.request(&inputs.probe)?;
            if check::sorted_lines(&response) == check::sorted_lines(probe_expected) {
                break;
            }
            if start.elapsed() > CATCH_UP {
                return Err(format!("replica never served the probe: {response}"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Some(replica)
    } else {
        None
    };
    let response = client.request(&inputs.probe)?;
    let ok = check::sorted_lines(&response) == check::sorted_lines(probe_expected);
    tally.check(ok, || format!("probe {} -> {response}", inputs.probe));
    Ok(Servers { primary, replica })
}

/// Runs a closed loop on one connection until `deadline`.
fn closed_loop(
    addr: &str,
    mut ops: impl Iterator<Item = Op>,
    start: Instant,
    deadline: Instant,
) -> Result<Vec<Record>, String> {
    let mut client = Client::connect(addr)?;
    let mut records = Vec::new();
    let mut ready = Instant::now();
    while Instant::now() < deadline {
        let op = ops.next().expect("endless stream");
        let sent = Instant::now();
        let response = client.request(&op.line);
        let done = Instant::now();
        let failed = response.is_err();
        records.push(Record {
            op,
            response,
            sent: (sent - start).as_secs_f64(),
            done: (done - start).as_secs_f64(),
            latency_ms: (done - sent).as_secs_f64() * 1e3,
            late_ms: (sent - ready).as_secs_f64() * 1e3,
        });
        if failed {
            break;
        }
        ready = done;
    }
    Ok(records)
}

/// Sends `ops` open loop, one every `interval` seconds, on one connection.
/// Each latency counts from the operation's due time.
fn open_loop(
    addr: &str,
    ops: Vec<Op>,
    start: Instant,
    interval: f64,
) -> Result<Vec<Record>, String> {
    let mut client = Client::connect(addr)?;
    let mut records = Vec::new();
    for (i, op) in ops.into_iter().enumerate() {
        let due = start + Duration::from_secs_f64(interval * i as f64);
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        let response = client.request(&op.line);
        let done = Instant::now();
        records.push(Record {
            op,
            response,
            sent: (sent - start).as_secs_f64(),
            done: (done - start).as_secs_f64(),
            latency_ms: (done - due).as_secs_f64() * 1e3,
            late_ms: (sent - due).as_secs_f64() * 1e3,
        });
    }
    Ok(records)
}

/// Runs one workload end to end: set-up (several times), the timed phase,
/// the drain window, the end-of-run readings, and every answer check.
pub fn run(
    inputs: &Inputs,
    bin: &Path,
    work: &Path,
    seconds: f64,
    scrape: bool,
) -> Result<RunOutput, String> {
    let reference = check::load(&inputs.load)?;
    let probe_expected = check::exact(&reference, &inputs.probe)?;
    let mut load = inputs.load.join("\n");
    load.push('\n');
    let preload = work.join("load.pdb");
    std::fs::write(&preload, load).map_err(|e| format!("{}: {e}", preload.display()))?;
    let mut tally = Tally::default();
    let mut setup_s = Vec::new();
    let mut servers = None;
    for _ in 0..SETUPS {
        drop(servers.take());
        let start = Instant::now();
        let s = set_up(inputs, bin, work, &probe_expected, &mut tally)?;
        setup_s.push(start.elapsed().as_secs_f64());
        servers = Some(s);
    }
    let servers = servers.expect("at least one set-up");

    let cpu_before = servers.cpu_ms();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let addr = servers.primary.addr.as_str();
    let (first, second) = std::thread::scope(|s| {
        let first = s.spawn(|| match inputs.workload {
            Workload::HardDeadline => {
                let count = ((seconds / HARD_INTERVAL_S) as usize).max(1);
                open_loop(addr, inputs.hard_queries(count), start, HARD_INTERVAL_S)
            }
            _ => closed_loop(addr, inputs.stream(0), start, deadline),
        });
        let second = s.spawn(|| closed_loop(addr, inputs.stream(1), start, deadline));
        while !(first.is_finished() && second.is_finished()) {
            let rss_mb = servers.primary.status("VmRSS") / 1024.0;
            if rss_mb > MAX_RSS_MB || Instant::now() > deadline + OVERRUN {
                eprintln!("perfbench: killing the server ({rss_mb:.0} MB resident)");
                servers.primary.kill_now();
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        (
            first.join().expect("client thread"),
            second.join().expect("client thread"),
        )
    });
    let timed_s = start.elapsed().as_secs_f64();
    let records = vec![first?, second?];
    std::thread::sleep(DRAIN);
    let server_cpu_ms = servers.cpu_ms() - cpu_before;
    let threads_after_drain = servers.primary.status("Threads");
    let peak_rss_mb = servers.primary.status("VmHWM") / 1024.0;
    let scrape = if scrape {
        servers.primary.connect()?.request("metrics")?
    } else {
        String::new()
    };

    let mut bound_widths = Vec::new();
    match inputs.workload {
        Workload::IngestViews => {
            check_final_state(&servers, &reference, &records[0], &mut tally)?;
            drop(servers);
            check_ingest_reads(&reference, &records, &mut tally);
        }
        _ => {
            // Stop the server first: its leftover work would slow the checks.
            drop(servers);
            check_reads(&reference, &records, &mut tally, &mut bound_widths);
        }
    }
    Ok(RunOutput {
        setup_s,
        records,
        timed_s,
        server_cpu_ms,
        peak_rss_mb,
        threads_after_drain,
        scrape,
        attempted: tally.attempted,
        failed: tally.failed,
        failures: tally.failures,
        bound_widths,
    })
}

/// Checks reads on a database no client writes: every answer must equal
/// the reference text, and approximate answers must lie in their bounds.
fn check_reads(
    reference: &ProbDb,
    records: &[Vec<Record>],
    tally: &mut Tally,
    bound_widths: &mut Vec<f64>,
) {
    let mut distinct: Vec<&Op> = records.iter().flatten().map(|r| &r.op).collect();
    distinct.sort_by(|a, b| a.line.cmp(&b.line));
    distinct.dedup_by(|a, b| a.line == b.line);
    // The references are independent: compute them on two threads.
    let half = distinct.len().div_ceil(2);
    let expected: HashMap<&str, Result<String, String>> = std::thread::scope(|s| {
        let workers: Vec<_> = distinct
            .chunks(half.max(1))
            .map(|chunk| {
                s.spawn(move || {
                    chunk
                        .iter()
                        .map(|op| {
                            let want = if op.kind == Kind::Approximate {
                                check::degraded(reference, &op.line)
                            } else {
                                check::exact(reference, &op.line)
                            };
                            (op.line.as_str(), want)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("reference thread"))
            .collect()
    });
    for r in records.iter().flatten() {
        let response = match &r.response {
            Ok(text) => text,
            Err(e) => {
                tally.check(false, || format!("{} -> {e}", r.op.line));
                continue;
            }
        };
        let want = &expected[r.op.line.as_str()];
        let mut ok = want.as_ref().is_ok_and(|w| w == response)
            && check::engine_matches(r.op.kind, response);
        if r.op.kind == Kind::Approximate {
            match check::parse_bounds(response) {
                Some((p, lo, hi)) => {
                    ok &= lo <= p && p <= hi;
                    bound_widths.push(hi - lo);
                }
                None => ok = false,
            }
        }
        tally.check(ok, || {
            format!("{} -> {response:?}, expected {want:?}", r.op.line)
        });
    }
}

/// True when a read only touches relations no client writes, so its
/// answer is fixed for the whole run.
fn reads_fixed_data(op: &Op) -> bool {
    const WRITTEN: [&str; 9] = ["VR", "VS", "VT", "WR", "WS", "WT", "LR", "LS", "LT"];
    op.kind == Kind::Classify
        || (op.kind != Kind::ViewShow && !WRITTEN.iter().any(|r| op.line.contains(r)))
}

fn same_answer(op: &Op, got: &str, want: &str) -> bool {
    if op.kind == Kind::ViewShow {
        check::sorted_lines(got) == check::sorted_lines(want)
    } else {
        got == want
    }
}

/// Checks `ingest_views`: writes must be acknowledged, every read must
/// come from the intended engine, reads of unwritten relations must equal
/// the reference, and a sample of the other reads must equal the reference
/// on one of the database states the read could have seen.
fn check_ingest_reads(reference: &ProbDb, records: &[Vec<Record>], tally: &mut Tally) {
    let writes = &records[0];
    for w in writes {
        let ok = matches!(&w.response, Ok(text) if text.is_empty());
        tally.check(ok, || format!("{} -> {:?}", w.op.line, w.response));
    }
    let reads = &records[1];
    let mut fixed: HashMap<&str, Result<String, String>> = HashMap::new();
    let mut moving = Vec::new();
    for (i, r) in reads.iter().enumerate() {
        let Ok(response) = &r.response else {
            tally.check(false, || format!("{} -> {:?}", r.op.line, r.response));
            continue;
        };
        if !check::engine_matches(r.op.kind, response) {
            tally.check(false, || format!("{} -> {response:?}", r.op.line));
        } else if reads_fixed_data(&r.op) {
            let want = fixed
                .entry(r.op.line.as_str())
                .or_insert_with(|| check::exact(reference, &r.op.line));
            let ok = want.as_ref().is_ok_and(|w| same_answer(&r.op, response, w));
            tally.check(ok, || {
                format!("{} -> {response:?}, expected {want:?}", r.op.line)
            });
        } else {
            moving.push(i);
        }
    }
    // Writes are applied in order; a read saw at least the writes
    // acknowledged before it was sent and at most those sent before its
    // answer arrived.
    let stride = moving.len().div_ceil(PREFIX_CHECKS).max(1);
    let mut sample: Vec<(usize, usize, &Record)> = moving
        .iter()
        .step_by(stride)
        .map(|&i| {
            let r = &reads[i];
            let lo = writes.partition_point(|w| w.done < r.sent);
            let hi = writes.partition_point(|w| w.sent < r.done);
            (lo, hi, r)
        })
        .collect();
    sample.sort_by_key(|&(lo, _, _)| lo);
    let mut db = reference.clone();
    let mut applied = 0;
    for (lo, hi, r) in sample {
        while applied < lo {
            let _ = check::apply(&mut db, &writes[applied].op.line);
            applied += 1;
        }
        let response = r.response.as_deref().unwrap_or_default();
        let mut state = db.clone();
        let mut ok = false;
        for k in lo..=hi.min(writes.len()) {
            if check::exact(&state, &r.op.line).is_ok_and(|w| same_answer(&r.op, response, &w)) {
                ok = true;
                break;
            }
            if k < writes.len() {
                let _ = check::apply(&mut state, &writes[k].op.line);
            }
        }
        tally.check(ok, || {
            format!(
                "{} -> {response:?} matches no state between writes {lo} and {hi}",
                r.op.line
            )
        });
    }
}

/// At the end of `ingest_views`: the replica's `show` and `view show`
/// equal the primary's, and both equal a fresh evaluation of the
/// final database.
fn check_final_state(
    servers: &Servers,
    reference: &ProbDb,
    writes: &[Record],
    tally: &mut Tally,
) -> Result<(), String> {
    let mut db = reference.clone();
    for w in writes {
        check::apply(&mut db, &w.op.line)?;
    }
    let want_show = format!("{}", db.tuple_db());
    let mut primary = servers.primary.connect()?;
    let replica_server = servers.replica.as_ref().ok_or("no replica")?;
    let mut replica = replica_server.connect()?;
    let primary_show = primary.request("show")?;
    tally.check(primary_show == want_show, || {
        "primary show differs from the reference".into()
    });
    let start = Instant::now();
    let mut replica_show = replica.request("show")?;
    while replica_show != primary_show && start.elapsed() < CATCH_UP {
        std::thread::sleep(Duration::from_millis(5));
        replica_show = replica.request("show")?;
    }
    tally.check(replica_show == primary_show, || {
        "replica show differs from the primary".into()
    });
    for (name, _) in INGEST_VIEWS {
        let line = format!("view show {name}");
        let p = primary.request(&line)?;
        let r = replica.request(&line)?;
        let fresh = check::fresh_view_show(&db, name)?;
        tally.check(p == r, || format!("{line}: replica {r:?} != primary {p:?}"));
        tally.check(
            check::sorted_lines(&p) == check::sorted_lines(&fresh),
            || format!("{line}: primary {p:?} != freshly compiled {fresh:?}"),
        );
    }
    Ok(())
}

/// The `q`-quantile of `samples` (in send order) per block of consecutive
/// samples, then the median over blocks. Each block holds enough samples
/// for ten beyond the quantile; there are at most `BLOCKS` of them. A burst
/// of noise on the host then moves one block, not the result.
fn blocked_quantile(samples: &[f64], q: f64) -> f64 {
    let need = (10.0 / (1.0 - q)).ceil() as usize;
    let blocks = (samples.len() / need).clamp(1, BLOCKS);
    let per_block: Vec<f64> = (0..blocks)
        .filter_map(|b| {
            let block = &samples[b * samples.len() / blocks..(b + 1) * samples.len() / blocks];
            quantile(block, q)
        })
        .collect();
    median(&per_block).unwrap_or(f64::NAN)
}

/// Operations completed per second in each of `WINDOWS` equal windows of
/// the timed phase, then the median over windows.
fn blocked_throughput(records: &[&Record], timed_s: f64) -> f64 {
    let width = timed_s / WINDOWS as f64;
    let mut counts = [0.0; WINDOWS];
    for r in records.iter().filter(|r| r.response.is_ok()) {
        counts[((r.done / width) as usize).min(WINDOWS - 1)] += 1.0;
    }
    let rates: Vec<f64> = counts.iter().map(|c| c / width).collect();
    median(&rates).unwrap_or(f64::NAN)
}

/// The end-to-end metrics of a run, in `BENCHMARK.json` order.
pub fn metrics(out: &RunOutput) -> Vec<(&'static str, f64, &'static str)> {
    let mut all: Vec<&Record> = out.records.iter().flatten().collect();
    all.sort_by(|a, b| a.sent.total_cmp(&b.sent));
    let completed = all.iter().filter(|r| r.response.is_ok()).count() as f64;
    let lat = |f: &dyn Fn(&Record) -> bool| -> Vec<f64> {
        all.iter().filter(|r| f(r)).map(|r| r.latency_ms).collect()
    };
    let reads = lat(&|r| !r.op.kind.is_write() && r.op.kind != Kind::Approximate);
    let hard = lat(&|r| r.op.kind.is_hard());
    vec![
        ("setup_s", median(&out.setup_s).unwrap_or(f64::NAN), "s"),
        (
            "throughput_ops",
            blocked_throughput(&all, out.timed_s),
            "ops/s",
        ),
        ("read_p50_ms", blocked_quantile(&reads, 0.5), "ms"),
        ("read_p99_ms", blocked_quantile(&reads, 0.99), "ms"),
        ("hard_p50_ms", blocked_quantile(&hard, 0.5), "ms"),
        ("hard_p90_ms", blocked_quantile(&hard, 0.9), "ms"),
        (
            "server_cpu_ms_per_op",
            out.server_cpu_ms / completed.max(1.0),
            "ms",
        ),
        ("server_peak_rss_mb", out.peak_rss_mb, "MB"),
    ]
}

/// Lines printed before the JSON result: sample counts and the figures
/// the JSON leaves out.
pub fn report(out: &RunOutput) -> Vec<String> {
    let count = |f: &dyn Fn(&Record) -> bool| out.records.iter().flatten().filter(|r| f(r)).count();
    let mut lines = vec![
        format!(
            "samples: reads={} writes={} hard={} set-ups={}",
            count(&|r| !r.op.kind.is_write() && r.op.kind != Kind::Approximate),
            count(&|r| r.op.kind.is_write()),
            count(&|r| r.op.kind.is_hard()),
            out.setup_s.len()
        ),
        format!(
            "set-up times: {} ms",
            out.setup_s
                .iter()
                .map(|s| format!("{:.2}", s * 1e3))
                .collect::<Vec<_>>()
                .join(" ")
        ),
        format!(
            "error_share = {:.6} (failed {} of {} attempted)",
            out.failed as f64 / out.attempted.max(1) as f64,
            out.failed,
            out.attempted
        ),
    ];
    let mut kinds: Vec<Kind> = out.records.iter().flatten().map(|r| r.op.kind).collect();
    kinds.sort();
    kinds.dedup();
    // Each kind's share of operations and of client time shows what the
    // mix of the workload spends its time on.
    let total_ms: f64 = out.records.iter().flatten().map(|r| r.latency_ms).sum();
    let total_ops = out.records.iter().flatten().count() as f64;
    for kind in kinds {
        let ms: Vec<f64> = out
            .records
            .iter()
            .flatten()
            .filter(|r| r.op.kind == kind)
            .map(|r| r.latency_ms)
            .collect();
        lines.push(format!(
            "{:12} n={:6} ({:4.1} % of ops, {:4.1} % of client time) p50={:.3} ms p99={:.3} ms max={:.3} ms",
            kind.name(),
            ms.len(),
            100.0 * ms.len() as f64 / total_ops,
            100.0 * ms.iter().sum::<f64>() / total_ms,
            quantile(&ms, 0.5).unwrap_or(0.0),
            quantile(&ms, 0.99).unwrap_or(0.0),
            quantile(&ms, 1.0).unwrap_or(0.0),
        ));
    }
    // Write latency is printed, not part of the result: only
    // `ingest_views` writes.
    let writes: Vec<f64> = out
        .records
        .iter()
        .flatten()
        .filter(|r| r.op.kind.is_write())
        .map(|r| r.latency_ms)
        .collect();
    if !writes.is_empty() {
        lines.push(format!(
            "write_p50_ms = {:.4} ms, write_p99_ms = {:.4} ms",
            blocked_quantile(&writes, 0.5),
            blocked_quantile(&writes, 0.99),
        ));
    }
    if let Some(width) = mean(&out.bound_widths) {
        lines.push(format!(
            "hard_bound_width = {width:.6} (mean upper - lower over {} plan bounds)",
            out.bound_widths.len()
        ));
    }
    let late: Vec<f64> = out.records[0].iter().map(|r| r.late_ms).collect();
    if let Some(late) = mean(&late) {
        lines.push(format!(
            "generator lateness on connection 1: mean {late:.3} ms"
        ));
    }
    lines.extend(out.failures.iter().map(|f| format!("FAILED: {f}")));
    lines
}
