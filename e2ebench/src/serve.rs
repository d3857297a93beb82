//! `serve_open_loop`: an in-process `dfv-serve` daemon fed over
//! in-memory duplex connections ([`CONNS`]) with the public frame codec.
//!
//! The window holds an open-loop phase at [`NOMINAL_RATE`], then a
//! saturation phase. In the open loop, submit frames go out on a seeded
//! Poisson schedule (independent users who do not wait for each other),
//! and each latency is timed from the moment its request was due. In the
//! saturation phase each connection keeps [`SATURATION_DEPTH`] jobs
//! outstanding, which gives the most jobs per second the daemon
//! completes with a backlog that cannot grow. Every job mixes two blocks from a shared
//! pool (proved once at set-up, so they are dedup hits) with two fresh
//! blocks, and every report must be byte-identical to the canonical
//! report of a direct `Campaign::run` over the same blocks.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use dfv::bits::SplitMix64;
use dfv::core::{BlockPair, Campaign, CampaignOptions, SharedStore};
use dfv::obs::Json;
use dfv::serve::proto::{decode_response, encode_request};
use dfv::serve::{
    duplex, read_frame, write_frame, ConnHandle, JobSpec, PipeReader, PipeWriter, Request,
    Response, ServeConfig, Server, SubmitOptions,
};

use crate::blocks::{self, front_end, plan_of, Planned};
use crate::openloop::{self, Log};
use crate::stats::{self, Metric};
use crate::trace::{self, Tracer};
use crate::{measure, repeat_setup, trim_heap, Ctx, Outcome, Phase, WORKERS};

/// Open-loop load, jobs per second, and its share of the window: about
/// 15% of the daemon's capacity, so jobs rarely wait for each other.
const NOMINAL_RATE: f64 = 30.0;
const NOMINAL_SHARE: f64 = 0.65;
/// Completions per `work_per_s` sample in the saturation phase.
const RATE_BATCH: usize = 10;
/// Outstanding jobs per connection in the saturation phase.
const SATURATION_DEPTH: usize = 6;
/// Jobs per second of window the saturation phase sends (its length
/// then follows the daemon's throughput, about a quarter of the window).
const SATURATION_JOBS_PER_S: f64 = 50.0;
/// Chunks of the saturation phase, and calibration probes before each.
const SATURATION_CHUNKS: usize = 10;
const CHUNK_PROBES: usize = 4;
/// Client connections (each with one generator and one reader thread).
const CONNS: usize = 1;
/// Job templates: pool picks and fresh-block tables.
const TEMPLATES: usize = 8;
/// A job not answered this long after the phase's last send has failed.
const TIMEOUT: Duration = Duration::from_secs(30);
/// Warm-up load after the pool is proved.
const WARMUP: Duration = Duration::from_millis(300);

/// A job shape: its blocks, which of them are fresh per submission, and
/// the canonical report it must produce.
struct Template {
    blocks: Vec<Planned>,
    fresh: Vec<bool>,
    expected: String,
}

impl Template {
    /// The blocks of one submission: fresh blocks get a unique nonce, so
    /// the daemon's shared store has never seen them.
    fn submission(&self, nonce: u64) -> Vec<BlockPair> {
        self.blocks
            .iter()
            .zip(&self.fresh)
            .map(|(p, &fresh)| {
                if fresh {
                    blocks::with_nonce(p.block.clone(), nonce)
                } else {
                    p.block.clone()
                }
            })
            .collect()
    }
}

/// The pool job (index 0) and the job templates, with their expected
/// reports computed by direct `Campaign::run`.
struct Fixture {
    templates: Vec<Template>,
}

fn direct_options(store: &SharedStore) -> CampaignOptions {
    CampaignOptions {
        workers: Some(1),
        shared_store: Some(store.clone()),
        ..CampaignOptions::default()
    }
}

fn fixture(seed: u64, corrupt: bool) -> Result<Fixture, String> {
    let mut rng = SplitMix64::new(seed ^ 0x5E7E);
    let (ta, tb) = (blocks::table(&mut rng), blocks::table(&mut rng));
    let pool = vec![
        blocks::alu("alu"),
        blocks::alu_bug("alu_fig1"),
        blocks::fir("fir"),
        blocks::memsys("mem_a_fast", &ta, true),
        blocks::memsys("mem_a_slow", &ta, false),
        blocks::memsys("mem_b_fast", &tb, true),
        blocks::memsys("mem_b_slow", &tb, false),
        blocks::mul("mul3", 3, false),
    ];
    // The pool proved once, directly: its verdicts are checked, and its
    // results seed a fresh store for each template's direct run.
    let store = SharedStore::new();
    let pool_report = Campaign::with_options(direct_options(&store)).run(&plan_of(&pool));
    for (r, p) in pool_report.blocks.iter().zip(&pool) {
        blocks::check_verdict(r, p.expect)?;
    }
    let mut templates = vec![Template {
        fresh: vec![false; pool.len()],
        expected: pool_report.to_run_report().canonical_json(),
        blocks: pool.clone(),
    }];
    for _ in 0..TEMPLATES {
        let a = rng.below(pool.len() as u64) as usize;
        let b = (a + 1 + rng.below(pool.len() as u64 - 1) as usize) % pool.len();
        let table = blocks::table(&mut rng);
        // The fresh blocks carry a nonce here too, so the direct run
        // cannot find them in the pool (`fir` is in both).
        let fresh = |p: Planned| Planned {
            block: blocks::with_nonce(p.block, 0),
            expect: p.expect,
        };
        let planned = vec![
            pool[a].clone(),
            pool[b].clone(),
            fresh(blocks::mul("fresh_mul", 4, false)),
            fresh(blocks::fir("fresh_fir")),
            fresh(blocks::memsys("fresh_mem", &table, true)),
        ];
        let store = SharedStore::new();
        for (r, p) in pool_report.blocks.iter().zip(&pool) {
            store.insert(p.block.content_hash(), r.clone());
        }
        let report = Campaign::with_options(direct_options(&store)).run(&plan_of(&planned));
        for (r, p) in report.blocks.iter().zip(&planned) {
            blocks::check_verdict(r, p.expect)?;
        }
        templates.push(Template {
            fresh: vec![false, false, true, true, true],
            expected: report.to_run_report().canonical_json(),
            blocks: planned,
        });
    }
    if corrupt {
        templates[1].expected.push(' ');
    }
    Ok(Fixture { templates })
}

/// One client connection: the server's threads for it, and our halves.
struct Conn {
    handle: ConnHandle,
    reader: Mutex<PipeReader>,
    writer: Mutex<PipeWriter>,
}

struct Daemon {
    server: Server,
    conns: Vec<Conn>,
    /// Submissions so far: the next nonce.
    submitted: u64,
}

impl Daemon {
    fn start(ctx: &Ctx) -> Daemon {
        let mut cfg = ServeConfig::new(ctx.work.join("serve-state"));
        cfg.executors = WORKERS;
        cfg.default_workers = Some(1);
        let server = Server::start(cfg);
        let conns = (0..CONNS)
            .map(|_| {
                let ((srv_r, srv_w), (cli_r, cli_w)) = duplex();
                Conn {
                    handle: server.attach(srv_r, srv_w),
                    reader: Mutex::new(cli_r),
                    writer: Mutex::new(cli_w),
                }
            })
            .collect();
        Daemon {
            server,
            conns,
            submitted: 0,
        }
    }
}

impl Drop for Daemon {
    /// Closes the connections, joins their threads and drains the
    /// executors.
    fn drop(&mut self) {
        for c in self.conns.drain(..) {
            drop(c.writer);
            drop(c.reader);
            c.handle.join();
        }
        self.server.drain();
        self.server.wait();
    }
}

/// How one phase offers load.
enum Load {
    /// Jobs due at these offsets, whatever happens to earlier ones.
    Open(Vec<Duration>),
    /// Keep this many jobs outstanding per connection until this many
    /// jobs have been sent (a fixed count keeps the shared store, and so
    /// the peak memory, the same size on every run).
    Closed { depth: usize, jobs: usize },
}

/// One submitted job's timeline (offsets from the phase start).
#[derive(Debug, Clone, Default)]
struct JobRec {
    template: usize,
    due: Duration,
    sent: Option<Duration>,
    accepted: Option<Duration>,
    progress: Option<Duration>,
    done: Option<Duration>,
    rejected: bool,
    span: u64,
    cache_hits: u64,
    blocks: u64,
}

impl JobRec {
    fn finished(&self) -> bool {
        self.done.is_some() || self.rejected
    }
}

struct PhaseRun {
    jobs: Vec<JobRec>,
    submit_bytes: Vec<f64>,
}

/// State shared by one phase's threads.
struct Shared<'a> {
    fx: &'a Fixture,
    tr: &'a Tracer,
    started: Instant,
    jobs: Mutex<Vec<JobRec>>,
    /// Per connection: jobs awaiting their admission answer, in order.
    awaiting: Vec<Mutex<VecDeque<usize>>>,
    outstanding: Vec<AtomicUsize>,
    error: Mutex<Option<String>>,
    submit_bytes: Mutex<Vec<f64>>,
}

impl Shared<'_> {
    fn fail(&self, e: String) {
        self.error.lock().expect("error lock").get_or_insert(e);
    }

    fn now(&self) -> Duration {
        self.started.elapsed()
    }

    /// Encodes and writes one submit frame for job `j`.
    fn submit(&self, conn: &Conn, c: usize, j: usize, nonce: u64) -> Result<(), String> {
        let (template, span) = {
            let jobs = self.jobs.lock().expect("job lock");
            (jobs[j].template, jobs[j].span)
        };
        let spec = JobSpec::Campaign {
            blocks: self.fx.templates[template].submission(nonce),
            options: SubmitOptions {
                workers: Some(1),
                ..SubmitOptions::default()
            },
        };
        let t = Instant::now();
        let msg = encode_request(&Request::Submit(spec)).map_err(|e| e.to_string())?;
        self.tr.span("serve.encode", Some(span), j as u64, t);
        if self.tr.is_on() {
            let bytes = msg.render().len() + 16;
            self.submit_bytes
                .lock()
                .expect("bytes lock")
                .push(bytes as f64);
        }
        let mut w = conn.writer.lock().expect("writer lock");
        self.awaiting[c].lock().expect("awaiting lock").push_back(j);
        self.outstanding[c].fetch_add(1, Ordering::SeqCst);
        let t = Instant::now();
        self.jobs.lock().expect("job lock")[j].sent = Some(self.now());
        write_frame(&mut *w, &msg).map_err(|e| e.to_string())?;
        self.tr.span("serve.frame_write", Some(span), j as u64, t);
        Ok(())
    }

    /// Reads one connection's responses until the closing `Pong`.
    fn read(&self, c: usize, r: &Mutex<PipeReader>) {
        let mut r = r.lock().expect("reader lock");
        let r = &mut *r;
        let mut ids: HashMap<u64, usize> = HashMap::new();
        loop {
            let frame = match read_frame(r) {
                Ok(f) => f,
                Err(e) => return self.fail(format!("connection {c}: {e}")),
            };
            let at = self.now();
            let resp = match self.decode(&frame, &ids) {
                Ok(resp) => resp,
                Err(e) => return self.fail(e),
            };
            let mut jobs = self.jobs.lock().expect("job lock");
            match resp {
                Response::Accepted { job } => {
                    let Some(j) = self.awaiting[c].lock().expect("awaiting lock").pop_front()
                    else {
                        return self.fail(format!("connection {c}: unexpected Accepted"));
                    };
                    ids.insert(job, j);
                    jobs[j].accepted = Some(at);
                    let rec = &jobs[j];
                    self.span("serve.admission", rec, rec.sent, at);
                }
                Response::Rejected { .. } => {
                    let Some(j) = self.awaiting[c].lock().expect("awaiting lock").pop_front()
                    else {
                        return self.fail(format!("connection {c}: unexpected Rejected"));
                    };
                    jobs[j].rejected = true;
                    self.outstanding[c].fetch_sub(1, Ordering::SeqCst);
                }
                Response::Progress { job, .. } => {
                    if let Some(&j) = ids.get(&job) {
                        if jobs[j].progress.is_none() {
                            jobs[j].progress = Some(at);
                            let rec = &jobs[j];
                            self.span("serve.queue_wait", rec, rec.accepted, at);
                        }
                    }
                }
                Response::Report { job, report } => {
                    let Some(&j) = ids.get(&job) else {
                        return self.fail(format!("connection {c}: report for unknown job {job}"));
                    };
                    let rec = &mut jobs[j];
                    let expected = &self.fx.templates[rec.template].expected;
                    if report.render() != *expected {
                        return self.fail(format!(
                            "job {j}: report differs from the direct Campaign::run\n  got      {}\n  expected {expected}",
                            report.render()
                        ));
                    }
                    let counter = |k: &str| {
                        report
                            .get("counters")
                            .and_then(|c| c.get(k))
                            .and_then(Json::as_u64)
                            .unwrap_or(0)
                    };
                    rec.cache_hits = counter("campaign.cache_hits");
                    rec.blocks = counter("campaign.blocks");
                    rec.done = Some(at);
                    let rec = &jobs[j];
                    self.span("serve.execute", rec, rec.progress.or(rec.accepted), at);
                    self.tr.record(
                        rec.span,
                        "serve.job",
                        None,
                        j as u64,
                        self.started + rec.due,
                        self.started + at,
                    );
                    self.outstanding[c].fetch_sub(1, Ordering::SeqCst);
                }
                Response::Pong => return,
                other => {
                    return self.fail(format!("connection {c}: unexpected response {other:?}"))
                }
            }
        }
    }

    /// Decodes a response; in a traced run, also times decoding the same
    /// frame from memory, which separates frame parsing from waiting.
    fn decode(&self, frame: &Json, ids: &HashMap<u64, usize>) -> Result<Response, String> {
        if self.tr.is_on() {
            let mut buf = Vec::new();
            write_frame(&mut buf, frame).map_err(|e| e.to_string())?;
            let t = Instant::now();
            let again = read_frame(&mut buf.as_slice()).map_err(|e| e.to_string())?;
            let resp = decode_response(&again).map_err(|e| e.to_string())?;
            let job = match &resp {
                Response::Progress { job, .. } | Response::Report { job, .. } => {
                    ids.get(job).copied()
                }
                _ => None,
            };
            let parent = job.map(|j| self.jobs.lock().expect("job lock")[j].span);
            self.tr
                .span("serve.frame_read", parent, job.unwrap_or(0) as u64, t);
        }
        decode_response(frame).map_err(|e| e.to_string())
    }

    /// Records a span of job `rec` from `from` to `to` (phase offsets).
    fn span(&self, name: &'static str, rec: &JobRec, from: Option<Duration>, to: Duration) {
        if let Some(from) = from {
            let id = self.tr.id();
            self.tr.record(
                id,
                name,
                Some(rec.span),
                0,
                self.started + from,
                self.started + to,
            );
        }
    }
}

/// Runs one phase to completion: every job answered, or failed after
/// [`TIMEOUT`].
fn run_phase(
    d: &mut Daemon,
    fx: &Fixture,
    tr: &Tracer,
    load: Load,
    rng: &mut SplitMix64,
    only: Option<usize>,
) -> Result<PhaseRun, String> {
    let pick =
        |rng: &mut SplitMix64| only.unwrap_or_else(|| 1 + rng.below(TEMPLATES as u64) as usize);
    let shared = Shared {
        fx,
        tr,
        started: Instant::now(),
        jobs: Mutex::new(Vec::new()),
        awaiting: (0..CONNS).map(|_| Mutex::new(VecDeque::new())).collect(),
        outstanding: (0..CONNS).map(|_| AtomicUsize::new(0)).collect(),
        error: Mutex::new(None),
        submit_bytes: Mutex::new(Vec::new()),
    };
    let base = d.submitted;
    let new_job = |due: Duration, template: usize| -> usize {
        let mut jobs = shared.jobs.lock().expect("job lock");
        jobs.push(JobRec {
            template,
            due,
            span: tr.id(),
            ..JobRec::default()
        });
        jobs.len() - 1
    };
    // Open loop: the whole seeded schedule and template sequence up front.
    let open = match &load {
        Load::Open(due) => due.iter().map(|&due| new_job(due, pick(rng))).count(),
        Load::Closed { .. } => 0,
    };
    let closed_templates: Vec<usize> = match &load {
        Load::Closed { jobs, .. } => (0..*jobs).map(|_| pick(rng)).collect(),
        Load::Open(_) => Vec::new(),
    };
    let sent_total = AtomicUsize::new(open);
    let conns = &d.conns;
    std::thread::scope(|s| {
        let sh = &shared;
        let mut readers = Vec::new();
        for (c, conn) in conns.iter().enumerate() {
            readers.push(s.spawn(move || sh.read(c, &conn.reader)));
        }
        let generators: Vec<_> = (0..CONNS)
            .map(|c| {
                let (load, new_job, closed_templates, sent_total) =
                    (&load, &new_job, &closed_templates, &sent_total);
                s.spawn(move || {
                    let conn = &conns[c];
                    match load {
                        Load::Open(_) => {
                            for j in (c..open).step_by(CONNS) {
                                let due = sh.jobs.lock().expect("job lock")[j].due;
                                if let Some(wait) = due.checked_sub(sh.now()) {
                                    std::thread::sleep(wait);
                                }
                                if let Err(e) = sh.submit(conn, c, j, base + j as u64) {
                                    return sh.fail(e);
                                }
                            }
                        }
                        Load::Closed { depth, jobs } => {
                            let mut k = c;
                            while k < *jobs && sh.error.lock().expect("error lock").is_none() {
                                if sh.outstanding[c].load(Ordering::SeqCst) >= *depth {
                                    std::thread::sleep(Duration::from_micros(100));
                                    continue;
                                }
                                let now = sh.now();
                                let j = new_job(now, closed_templates[k]);
                                k += CONNS;
                                sent_total.fetch_add(1, Ordering::SeqCst);
                                if let Err(e) = sh.submit(conn, c, j, base + j as u64) {
                                    return sh.fail(e);
                                }
                            }
                        }
                    }
                })
            })
            .collect();
        for g in generators {
            g.join().expect("generator thread");
        }
        // Wait for every answer (or the timeout), then close each reader
        // with a Ping: its Pong comes after every admission answer.
        let last_send = Instant::now();
        while last_send.elapsed() < TIMEOUT && shared.error.lock().expect("error lock").is_none() {
            if shared
                .jobs
                .lock()
                .expect("job lock")
                .iter()
                .all(JobRec::finished)
            {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        for conn in conns {
            let ping = encode_request(&Request::Ping).expect("ping encodes");
            if let Err(e) = write_frame(&mut *conn.writer.lock().expect("writer lock"), &ping) {
                shared.fail(e.to_string());
            }
        }
        for r in readers {
            r.join().expect("reader thread");
        }
    });
    d.submitted += sent_total.load(Ordering::SeqCst) as u64;
    if let Some(e) = shared.error.into_inner().expect("error lock") {
        return Err(e);
    }
    Ok(PhaseRun {
        jobs: shared.jobs.into_inner().expect("job lock"),
        submit_bytes: shared.submit_bytes.into_inner().expect("bytes lock"),
    })
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let t = Instant::now();
    let fx = fixture(ctx.seed, ctx.inject)?;
    let oracle_s = t.elapsed().as_secs_f64();
    let mut rng = SplitMix64::new(ctx.seed ^ 0x10AD);
    let off = Tracer::new(false);
    // Set-up: start the daemon, prove the pool through it (the shared
    // store's warm content), then a short warm-up at the nominal rate.
    let (mut daemon, setup_s) = repeat_setup(ctx, || {
        let mut d = Daemon::start(ctx);
        let pool = run_phase(
            &mut d,
            &fx,
            &off,
            Load::Open(vec![Duration::ZERO]),
            &mut rng,
            Some(0),
        )?;
        let warm = openloop::schedule(&mut rng, NOMINAL_RATE, WARMUP);
        let w = run_phase(&mut d, &fx, &off, Load::Open(warm), &mut rng, None)?;
        if pool.jobs.iter().chain(&w.jobs).any(|j| j.done.is_none()) {
            return Err("a set-up job was rejected or timed out".into());
        }
        Ok(d)
    })
    .map_err(|e| format!("set-up: {e}"))?;

    let (untraced, traced) = measure(ctx, |tr, window| {
        let saturation_jobs = (window.as_secs_f64() * SATURATION_JOBS_PER_S) as usize;
        let mut phase = Phase::default();
        let span = window.mul_f64(NOMINAL_SHARE);
        let due = openloop::schedule(&mut rng, NOMINAL_RATE, span);
        let open = run_phase(
            &mut daemon,
            &fx,
            tr,
            Load::Open(due.clone()),
            &mut rng,
            None,
        )?;
        let mut log = Log::new(&due);
        for (r, j) in log.requests.iter_mut().zip(&open.jobs) {
            (r.sent, r.done) = (j.sent, j.done);
        }
        phase.named = stats::latency_metrics("serve_latency_ms", &mut log.latencies_ms(), "ms");
        phase.named.extend(stats::latency_metrics(
            "serve_generator_late_ms",
            &mut log.lateness_ms(),
            "ms",
        ));
        // Status has only cumulative counters, so the live queue depth is
        // read from outside: jobs due but not yet answered.
        phase.named.push(Metric::new(
            "serve_backlog_mid",
            log.backlog_at(span / 2) as f64,
            "count",
            due.len(),
        ));
        phase.named.push(Metric::new(
            "serve_backlog_end",
            log.backlog_at(span) as f64,
            "count",
            due.len(),
        ));
        let mut runs = vec![open];
        // The saturation phase runs in chunks. Between chunks the daemon
        // is idle: free heap pages go back to the system and the
        // calibration kernel is timed.
        let mut completed = 0;
        for _ in 0..SATURATION_CHUNKS {
            trim_heap();
            (0..CHUNK_PROBES).for_each(|_| ctx.calib.probe());
            let chunk = run_phase(
                &mut daemon,
                &fx,
                tr,
                Load::Closed {
                    depth: SATURATION_DEPTH,
                    jobs: saturation_jobs / SATURATION_CHUNKS,
                },
                &mut rng,
                None,
            )?;
            // Completion rate over each run of RATE_BATCH completions,
            // skipping the chunk's first run (the pipeline filling).
            let mut done: Vec<f64> = chunk
                .jobs
                .iter()
                .filter_map(|j| j.done)
                .map(|d| d.as_secs_f64())
                .collect();
            stats::sort(&mut done);
            completed += done.len();
            phase.work_rates.extend(
                done.iter()
                    .step_by(RATE_BATCH)
                    .collect::<Vec<_>>()
                    .windows(2)
                    .skip(1)
                    .map(|w| RATE_BATCH as f64 / (w[1] - w[0])),
            );
            // The gated latency is submit to report with the backlog held
            // at SATURATION_DEPTH: at light load the median follows the
            // host's wake-up latency for idle vCPUs, which doubled for
            // whole runs.
            phase.op_ms.extend(
                chunk
                    .jobs
                    .iter()
                    .filter_map(|j| j.done.map(|d| (d - j.due).as_secs_f64() * 1e3)),
            );
            runs.push(chunk);
        }
        phase.named.extend(stats::latency_metrics(
            "serve_saturated_latency_ms",
            &mut phase.op_ms.clone(),
            "ms",
        ));
        let all = || runs.iter().flat_map(|r| &r.jobs);
        phase.attempted = all().count() as u64;
        phase.failed = all().filter(|j| j.done.is_none()).count() as u64;
        phase.named.push(Metric::new(
            "serve_saturated_jobs_per_s",
            stats::median_of(&phase.work_rates),
            "1/s",
            completed,
        ));
        if tr.is_on() {
            // The daemon parses, lints and elaborates each fresh block of a
            // job; the same front-end calls, made here per nominal job.
            for (j, rec) in runs[0].jobs.iter().enumerate() {
                let t = &fx.templates[rec.template];
                for (p, _) in t.blocks.iter().zip(&t.fresh).filter(|(_, &fresh)| fresh) {
                    front_end(tr, rec.span, j as u64, &p.block);
                }
            }
            let spans = tr.spans();
            let by = trace::self_time_by_name(&spans);
            let mean = |name: &str, scale: f64| {
                by.get(name)
                    .map_or(0.0, |&(ns, k)| ns as f64 / scale / k.max(1) as f64)
            };
            let mut l = BTreeMap::new();
            let per_job = |name: &str| {
                by.get(name).map_or(0.0, |&(ns, _)| ns as f64 / 1e3)
                    / runs[0].jobs.len().max(1) as f64
            };
            for (k, span) in [
                ("slmir.parse_us", "slmir.parse"),
                ("slmir.lint_us", "slmir.lint"),
                ("slmir.elaborate_us", "slmir.elaborate"),
            ] {
                l.insert(k, per_job(span));
            }
            l.insert("serve.frame_write_us", mean("serve.frame_write", 1e3));
            l.insert("serve.frame_read_us", mean("serve.frame_read", 1e3));
            // Job timelines at the nominal rate, where queueing is light.
            let nominal = &runs[0].jobs;
            let gap = |f: fn(&JobRec) -> Option<(Duration, Duration)>| {
                let v: Vec<f64> = nominal
                    .iter()
                    .filter_map(f)
                    .map(|(a, b)| b.saturating_sub(a).as_secs_f64())
                    .collect();
                v.iter().sum::<f64>() / v.len().max(1) as f64
            };
            l.insert("serve.admission_us", 1e6 * gap(|j| j.sent.zip(j.accepted)));
            l.insert(
                "serve.queue_wait_ms",
                1e3 * gap(|j| j.accepted.zip(j.progress)),
            );
            l.insert("serve.execute_ms", 1e3 * gap(|j| j.progress.zip(j.done)));
            let bytes: Vec<f64> = runs
                .iter()
                .flat_map(|r| r.submit_bytes.iter().copied())
                .collect();
            l.insert(
                "serve.submit_frame_bytes",
                bytes.iter().sum::<f64>() / bytes.len().max(1) as f64,
            );
            let (hits, blocks) = all().fold((0, 0), |(h, b), j| (h + j.cache_hits, b + j.blocks));
            l.insert("serve.dedup_hit_ratio", hits as f64 / blocks.max(1) as f64);
            l.insert(
                "serve.rejected",
                all().filter(|j| j.rejected).count() as f64,
            );
            phase.layers = l;
        }
        Ok(phase)
    })?;
    drop(daemon);
    Ok(Outcome {
        setup_s,
        untraced,
        traced,
        notes: vec![Metric::new("oracle_s", oracle_s, "s", TEMPLATES + 1)],
    })
}
