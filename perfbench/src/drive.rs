//! The served run: set-up, the closed-loop client, shutdown, and the output
//! checks every run must pass before it may print a number.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use dsg::prelude::*;
use dsg::service::ShutdownOutcome;
use dsg_workloads::Workload;

use crate::heap;
use crate::spans::{Tracer, ROOT};
use crate::spec::{WorkloadId, OUTSTANDING};

pub type Res<T> = Result<T, String>;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Length of the alternating untraced/traced blocks of a traced run.
pub const TRACE_BLOCK_S: f64 = 0.25;

/// A service built, spawned and warmed up.
pub struct Ready {
    pub service: DsgService,
    /// The rest of the request stream, for the timed window.
    pub requests: Box<dyn Workload + Send>,
    pub setup_s: f64,
}

/// Builds the session, starts the service and serves the warm-up prefix of
/// the request stream.
pub fn set_up(w: WorkloadId, seed: u64, record_journal: bool) -> Res<Ready> {
    let start = Instant::now();
    let session = w
        .builder()
        .build()
        .map_err(|e| format!("build failed: {e}"))?;
    let service = DsgService::spawn(session, w.service_config(record_journal))
        .map_err(|e| format!("spawn failed: {e}"))?;
    let mut requests = w.requests(seed);
    let mut pending: VecDeque<Ticket> = VecDeque::new();
    for _ in 0..w.warmup_requests() {
        if pending.len() == OUTSTANDING {
            warm_wait(pending.pop_front().expect("the window is full"))?;
        }
        let ticket = service
            .submit(requests.next_request())
            .map_err(|e| format!("warm-up submit refused: {e}"))?;
        pending.push_back(ticket);
    }
    for ticket in pending {
        warm_wait(ticket)?;
    }
    Ok(Ready {
        service,
        requests,
        setup_s: start.elapsed().as_secs_f64(),
    })
}

fn warm_wait(ticket: Ticket) -> Res<()> {
    ticket
        .wait()
        .map(|_| ())
        .map_err(|e| format!("warm-up request failed: {e}"))
}

/// Heap growth of one set-up and the nodes it built.
#[derive(Debug, Default, Clone, Copy)]
pub struct Memory {
    pub growth_bytes: f64,
    pub nodes: f64,
}

/// Sets the workload up [`SETUPS`] times and keeps the last service for
/// the timed window. Returns it with every set-up time and, from the first
/// set-up, the heap growth and node count it produced.
pub fn set_up_repeatedly(
    w: WorkloadId,
    seed: u64,
    record_journal: bool,
) -> Res<(Ready, Vec<f64>, Memory)> {
    let mut times = Vec::new();
    let mut memory = Memory::default();
    for i in 0..SETUPS {
        let before = heap::live_bytes();
        let mut ready = set_up(w, seed, record_journal)?;
        times.push(ready.setup_s);
        if i + 1 == SETUPS {
            return Ok((ready, times, memory));
        }
        let grown = heap::live_bytes().saturating_sub(before);
        let out = ready
            .service
            .shutdown()
            .map_err(|e| format!("shutdown failed: {e}"))?;
        if i == 0 {
            memory = Memory {
                growth_bytes: grown as f64,
                nodes: (out.session.len() + out.session.engine().dummy_count()) as f64,
            };
        }
    }
    unreachable!("SETUPS is at least 1")
}

/// What the client saw during the timed window.
#[derive(Debug, Default)]
pub struct Served {
    /// Requests in the cost window (see [`WorkloadId::cost_window`]).
    pub cost_window: usize,
    pub attempted: u64,
    /// Submissions the service refused.
    pub refused: u64,
    /// Accepted tickets that resolved with an error.
    pub errored: u64,
    pub first_error: Option<String>,
    /// Per served request: submit to resolution.
    pub latency_ms: Vec<f64>,
    /// Per request of the cost window: links traversed, the paper's
    /// `d + 1`.
    pub hops: Vec<f64>,
    /// Sums over the cost window of `ρ` and of `d + ρ + 1`.
    pub rounds_sum: u64,
    pub cost_sum: u64,
    /// Peak live heap of the process when the cost window closed.
    pub window_peak_heap: usize,
    /// Timed wall time, first submit to last resolution.
    pub wall_s: f64,
    /// How long each freed window slot waited for its next submit.
    pub turnaround_ms: Vec<f64>,
    /// Requests served from untraced and from traced blocks.
    pub served_by_mode: [u64; 2],
}

impl Served {
    fn record(&mut self, result: Result<SubmitOutcome, DsgError>, latency_ms: f64, traced: bool) {
        match result {
            Ok(SubmitOutcome::Communicated(outcome)) => {
                self.latency_ms.push(latency_ms);
                self.served_by_mode[traced as usize] += 1;
                if self.hops.len() < self.cost_window {
                    self.hops.push((outcome.routing_cost + 1) as f64);
                    self.rounds_sum += outcome.transformation_rounds() as u64;
                    self.cost_sum += outcome.total_cost() as u64;
                    self.window_peak_heap = heap::peak_bytes();
                }
            }
            Ok(other) => self.fail(format!("unexpected outcome {other:?}")),
            Err(e) => self.fail(e.to_string()),
        }
    }

    fn fail(&mut self, error: String) {
        self.errored += 1;
        self.first_error.get_or_insert(error);
    }

    pub fn served(&self) -> u64 {
        self.latency_ms.len() as u64
    }

    /// Seconds the timed window spent in untraced and in traced blocks.
    pub fn mode_seconds(&self) -> [f64; 2] {
        let mut seconds = [0.0; 2];
        let mut k = 0u64;
        while (k as f64) * TRACE_BLOCK_S < self.wall_s {
            let length = TRACE_BLOCK_S.min(self.wall_s - k as f64 * TRACE_BLOCK_S);
            seconds[(k % 2) as usize] += length;
            k += 1;
        }
        seconds
    }
}

struct Pending {
    id: u64,
    submitted: Instant,
    ticket: Ticket,
    traced: bool,
    root: u32,
}

/// The timed window: one client keeping [`OUTSTANDING`] tickets in flight
/// and waiting on the oldest. The service resolves a drained run's tickets
/// in order, so waiting in submission order observes each resolution when
/// it happens. With a `tracer`, requests submitted in every other
/// [`TRACE_BLOCK_S`] block get client spans, so traced and untraced
/// requests share the run's conditions.
pub fn closed_loop(
    w: WorkloadId,
    ready: &mut Ready,
    seconds: f64,
    mut tracer: Option<&mut Tracer>,
) -> Served {
    let service = &ready.service;
    let mut served = Served {
        cost_window: w.cost_window(),
        ..Served::default()
    };
    let mut pending: VecDeque<Pending> = VecDeque::new();
    let mut freed: Option<Instant> = None;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    loop {
        while pending.len() < OUTSTANDING && Instant::now() < deadline {
            let id = served.attempted;
            let request = ready.requests.next_request();
            let submitted = Instant::now();
            if let Some(freed) = freed.take() {
                served.turnaround_ms.push(ms(submitted - freed));
            }
            let block = ((submitted - start).as_secs_f64() / TRACE_BLOCK_S) as u64;
            let (result, root, traced) = match tracer.as_deref_mut() {
                Some(tracer) if block % 2 == 1 => {
                    let root = tracer.open("client.request", ROOT, id);
                    let result =
                        tracer.time("service.submit", root, id, || service.submit(request));
                    (result, root, true)
                }
                _ => (service.submit(request), ROOT, false),
            };
            served.attempted += 1;
            match result {
                Ok(ticket) => pending.push_back(Pending {
                    id,
                    submitted,
                    ticket,
                    traced,
                    root,
                }),
                Err(_) => served.refused += 1,
            }
        }
        let Some(p) = pending.pop_front() else { break };
        let result = match tracer.as_deref_mut() {
            Some(tracer) if p.traced => {
                let result = tracer.time("ticket.wait", p.root, p.id, || p.ticket.wait());
                tracer.close(p.root);
                result
            }
            _ => p.ticket.wait(),
        };
        let done = Instant::now();
        freed = Some(done);
        served.record(result, ms(done - p.submitted), p.traced);
    }
    served.wall_s = start.elapsed().as_secs_f64();
    served
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Shuts the service down and checks the run: every ticket accounted for,
/// the service's own count agreeing with the client's, and the shut-down
/// engine passing a deep `validate()`.
pub fn finish(w: WorkloadId, mut ready: Ready, served: &Served) -> Res<ShutdownOutcome> {
    let out = ready
        .service
        .shutdown()
        .map_err(|e| format!("shutdown failed: {e}"))?;
    out.session
        .engine()
        .validate()
        .map_err(|e| format!("deep validate() of the shut-down engine failed: {e}"))?;
    let resolved = served.served() + served.refused + served.errored;
    if resolved != served.attempted {
        return Err(format!(
            "{} requests attempted but {resolved} accounted for",
            served.attempted
        ));
    }
    let accepted = w.warmup_requests() as u64 + served.attempted - served.refused;
    if out.metrics.submitted != accepted {
        return Err(format!(
            "the service accepted {} requests, the client {accepted}",
            out.metrics.submitted
        ));
    }
    if let Some(error) = &served.first_error {
        eprintln!(
            "perfbench: {} requests failed, first: {error}",
            served.errored
        );
    }
    Ok(out)
}
