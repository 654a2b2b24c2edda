//! The two serving workloads, driven open-loop from one harness thread.
//!
//! * `oneshot_budget`: one [`Server`] with `nproc` workers; Poisson
//!   arrivals of one-row [`Request::with_budget`] requests whose budgets
//!   buy each of the four subnets about a quarter of the time; answered,
//!   then released. No router, no upgrades.
//! * `stepping_zipf`: [`Router::launch`] with two replicas of one worker;
//!   Poisson session arrivals keyed by a zipf(1) draw over 256 users. A
//!   session begins at subnet 0 and upgrades one subnet at a time (each
//!   extra budget buys exactly one step), sending each upgrade when the
//!   previous answer arrives, then releases.
//!
//! Schedules, keys, budgets and inputs are generated from the seed before
//! timing starts. Latency runs from the scheduled send time. At every
//! wake-up the harness sends everything already due, then collects every
//! answer that is ready, stamping each when it is seen.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use stepping_baselines::regular_assign;
use stepping_core::{Result as CoreResult, SteppingNet, SteppingNetBuilder};
use stepping_metrics::{HistSnapshot, MetricsRegistry, Snapshot};
use stepping_router::{RoutedTicket, Router, RouterConfig};
use stepping_runtime::{expand_macs, DeviceModel, SessionConfig};
use stepping_serve::{Outcome, Request, Response, ServeConfig, Server, Ticket};
use stepping_tensor::{init, Shape, Tensor};

use crate::host::{cores, process_cpu};
use crate::report::{RunResult, MAX_EXAMPLES};
use crate::rng::{poisson, Rng, Zipf};
use crate::stats::{Sample, Windowed};
use crate::trace::{SpanId, Tracer, NONE};
use crate::Args;

/// Latency limit (µs, from the scheduled send) a request or session must
/// meet, undegraded, to count toward a ladder rung's good share.
pub const LIMIT_US: f64 = 20_000.0;

/// Fixed reference rate of `oneshot_budget`, requests/s, and its rate
/// ladder: 4 000/s rising 4% a rung to 100 000/s.
pub const ONESHOT_REF_RPS: f64 = 4_000.0;
pub const ONESHOT_LADDER: (f64, f64, f64) = (4_000.0, 1.04, 100_000.0);

/// Fixed reference rate of `stepping_zipf`, sessions/s (each session is
/// four requests), and its rate ladder: 500/s rising 4% a rung to
/// 30 000/s.
pub const STEPPING_REF_SPS: f64 = 1_200.0;
pub const STEPPING_LADDER: (f64, f64, f64) = (500.0, 1.04, 30_000.0);

/// The rungs of a `(start, ratio, top)` ladder, rounded to whole rates.
pub fn ladder((start, ratio, top): (f64, f64, f64)) -> Vec<f64> {
    let mut rungs = Vec::new();
    let mut r = start;
    while r <= top * 1.000_001 {
        rungs.push(r.round());
        r *= ratio;
    }
    rungs
}

/// Share of a rung's units that must meet the limit, as the median over
/// the rung's fifths.
pub const RUNG_GOOD: f64 = 0.95;
/// Width of the windows latency summaries take their median over.
pub const WINDOW_SECS: f64 = 0.5;

const USERS: usize = 256;
const INPUT_POOL: usize = 1024;
/// One answer in this many is checked bit for bit against the oracle.
const CHECK_EVERY: u64 = 16;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// How long a phase waits for stragglers after its last send.
const DRAIN: Duration = Duration::from_secs(2);
/// Longest the harness sleeps while answers are outstanding.
const POLL: Duration = Duration::from_micros(100);

/// The serving MLP: 128-512-512-10, four nested subnets at 25/50/75/100%
/// width.
pub fn serving_net() -> SteppingNet {
    let mut net = SteppingNetBuilder::new(Shape::of(&[128]), 4, 3)
        .linear(512)
        .relu()
        .linear(512)
        .relu()
        .build(10)
        .expect("the serving MLP geometry is valid");
    regular_assign(&mut net, &[0.25, 0.5, 0.75, 1.0]).expect("four width fractions");
    net
}

fn session_config() -> SessionConfig {
    SessionConfig::new().device(DeviceModel::embedded())
}

fn inputs(seed: u64) -> Vec<Tensor> {
    let mut rng = init::rng(seed ^ 0x1A9D);
    (0..INPUT_POOL)
        .map(|_| init::uniform(Shape::of(&[1, 128]), -1.0, 1.0, &mut rng))
        .collect()
}

/// Budgets (µs) that buy exactly subnet `k` directly, and extra budgets
/// that buy exactly one upgrade step from `k` to `k + 1`.
#[derive(Debug, Clone)]
struct Budgets {
    direct: Vec<(f64, f64)>,
    step: Vec<f64>,
}

impl Budgets {
    fn new(net: &SteppingNet) -> CoreResult<Self> {
        let cfg = session_config();
        let dev = cfg.get_device().expect("device set above");
        let thr = cfg.get_prune_threshold();
        let n = net.subnet_count();
        let lat: Vec<f64> = (0..n).map(|k| dev.latency_us(net.macs(k, thr))).collect();
        let direct = (0..n)
            .map(|k| {
                let hi = if k + 1 < n { lat[k + 1] } else { 2.0 * lat[k] };
                (lat[k], hi)
            })
            .collect();
        // from k, one step costs expand_macs(k); the budget sits halfway
        // between one step and two so it buys exactly one
        let mut step = Vec::with_capacity(n);
        for k in 0..n - 1 {
            let one = dev.latency_us(expand_macs(net, k, thr)?);
            let two = if k + 2 < n {
                one + dev.latency_us(expand_macs(net, k + 1, thr)?)
            } else {
                2.0 * one
            };
            step.push(0.5 * (one + two));
        }
        Ok(Budgets { direct, step })
    }

    /// A budget drawn inside the band that buys subnet `k`.
    fn draw(&self, k: usize, rng: &mut Rng) -> f64 {
        let (lo, hi) = self.direct[k];
        lo + (hi - lo) * (0.1 + 0.8 * rng.unit())
    }
}

/// Anything the harness can wait on: a server or a routed ticket.
trait Waitable {
    fn poll(&self) -> Option<CoreResult<Response>>;
    fn block(&self, timeout: Duration) -> Option<CoreResult<Response>>;
}

impl Waitable for Ticket {
    fn poll(&self) -> Option<CoreResult<Response>> {
        self.try_wait()
    }
    fn block(&self, timeout: Duration) -> Option<CoreResult<Response>> {
        self.wait_timeout(timeout)
    }
}

impl Waitable for RoutedTicket {
    fn poll(&self) -> Option<CoreResult<Response>> {
        self.try_wait()
    }
    fn block(&self, timeout: Duration) -> Option<CoreResult<Response>> {
        self.wait_timeout(timeout)
    }
}

/// What one open-loop phase observed.
#[derive(Debug)]
struct Phase {
    secs: f64,
    /// When the schedule starts; latencies are windowed by due time.
    origin: Instant,
    attempted: u64,
    failed: u64,
    answers: u64,
    degraded: u64,
    /// Units (requests or sessions) answered completely.
    completed: u64,
    /// Units that met the limit cleanly.
    good: u64,
    /// (units sent, units good) per fifth of the schedule.
    fifths: [(u64, u64); 5],
    first: Windowed,
    upgrade: Windowed,
    full: Windowed,
    late: Sample,
    submit_call: Sample,
    upgrade_call: Sample,
    handoff: Sample,
    batch: Sample,
    subnet: Sample,
    reuse: Sample,
    per_replica: Vec<u64>,
    /// Refusals, errors and time-outs (operational failures): the first
    /// few described.
    failures: Vec<String>,
    /// Answers that failed an output check, and the first few described.
    wrong: u64,
    wrong_examples: Vec<String>,
    cpu: Duration,
    /// Sampled answers to check: (input index, subnet, logits).
    to_check: Vec<(usize, usize, Tensor)>,
}

impl Phase {
    fn new(secs: f64, origin: Instant, replicas: usize) -> Self {
        Phase {
            secs,
            origin,
            attempted: 0,
            failed: 0,
            answers: 0,
            degraded: 0,
            completed: 0,
            good: 0,
            fifths: [(0, 0); 5],
            first: Windowed::new(WINDOW_SECS),
            upgrade: Windowed::new(WINDOW_SECS),
            full: Windowed::new(WINDOW_SECS),
            late: Sample::new(),
            submit_call: Sample::new(),
            upgrade_call: Sample::new(),
            handoff: Sample::new(),
            batch: Sample::new(),
            subnet: Sample::new(),
            reuse: Sample::new(),
            per_replica: vec![0; replicas],
            failures: Vec::new(),
            wrong: 0,
            wrong_examples: Vec::new(),
            cpu: Duration::ZERO,
            to_check: Vec::new(),
        }
    }

    /// Seconds from the schedule's start to `due`.
    fn at(&self, due: Instant) -> f64 {
        due.saturating_duration_since(self.origin).as_secs_f64()
    }

    fn fifth(&self, due: Instant) -> usize {
        ((5.0 * self.at(due) / self.secs) as usize).min(4)
    }

    fn unit_sent(&mut self, due: Instant) {
        let f = self.fifth(due);
        self.fifths[f].0 += 1;
    }

    fn unit_good(&mut self, due: Instant) {
        self.good += 1;
        let f = self.fifth(due);
        self.fifths[f].1 += 1;
    }

    /// The median over the schedule's fifths of the share of units that
    /// met the limit. A backlog that keeps growing fails the later fifths
    /// and so the median; one stall of the host fails at most one or two.
    fn good_share(&self) -> f64 {
        let shares: Vec<f64> = self
            .fifths
            .iter()
            .map(|&(sent, good)| good as f64 / sent.max(1) as f64)
            .collect();
        crate::stats::median_of(&shares)
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < MAX_EXAMPLES {
            self.failures.push(what);
        }
    }

    /// An answer that is wrong, not merely late or refused.
    fn wrong(&mut self, what: String) {
        self.failed += 1;
        self.wrong += 1;
        if self.wrong_examples.len() < MAX_EXAMPLES {
            self.wrong_examples.push(what);
        }
    }

    /// Moves the counts into `out`: wrong answers as failed checks, the
    /// rest as failed operations.
    fn report_failures(&self, out: &mut RunResult) {
        out.attempted += self.attempted;
        out.failed += self.failed - self.wrong;
        out.wrong(self.wrong, &self.wrong_examples);
    }

    /// Units answered completely per second of schedule.
    fn completed_rate(&self) -> f64 {
        self.completed as f64 / self.secs
    }
}

/// Sends every due arrival through `send`, then gathers ready answers
/// through `done`, until all arrivals are sent and answered or `DRAIN`
/// passes after the last send. Answers still outstanding then time out.
fn drive<P, S, D>(
    t0: Instant,
    due: &[f64],
    mut send: S,
    mut done: D,
    outstanding_ticket: impl Fn(&P) -> &dyn Waitable,
    phase: &mut Phase,
) where
    S: FnMut(usize, Instant, &mut Vec<P>, &mut Phase),
    D: FnMut(P, CoreResult<Response>, Instant, &mut Vec<P>, &mut Phase),
{
    let mut pending: Vec<P> = Vec::new();
    let mut next = 0usize;
    let end = t0 + Duration::from_secs_f64(due.last().copied().unwrap_or(0.0));
    loop {
        let now = Instant::now();
        while next < due.len() && t0 + Duration::from_secs_f64(due[next]) <= now {
            send(
                next,
                t0 + Duration::from_secs_f64(due[next]),
                &mut pending,
                phase,
            );
            next += 1;
        }
        let mut i = 0;
        while i < pending.len() {
            if let Some(result) = outstanding_ticket(&pending[i]).poll() {
                let seen = Instant::now();
                let p = pending.swap_remove(i);
                done(p, result, seen, &mut pending, phase);
            } else {
                i += 1;
            }
        }
        let now = Instant::now();
        if next == due.len() && (pending.is_empty() || now > end + DRAIN) {
            for _ in pending.drain(..) {
                phase.fail("timed out waiting for an answer".into());
            }
            return;
        }
        let wake = if next < due.len() {
            (t0 + Duration::from_secs_f64(due[next])).saturating_duration_since(now)
        } else {
            POLL
        };
        match pending.first() {
            Some(p) => {
                if let Some(result) = outstanding_ticket(p).block(wake.min(POLL)) {
                    let seen = Instant::now();
                    let p = pending.swap_remove(0);
                    done(p, result, seen, &mut pending, phase);
                }
            }
            None => std::thread::sleep(wake),
        }
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn should_check(seed: u64, n: u64) -> bool {
    Rng::new(seed ^ n.wrapping_mul(0x2545_F491_4F6C_DD1D))
        .next_u64()
        .is_multiple_of(CHECK_EVERY)
}

// ---------------------------------------------------------------- oneshot

struct OneshotPending {
    ticket: Ticket,
    due: Instant,
    sent: Instant,
    subnet: usize,
    input: usize,
    span: SpanId,
    n: u64,
}

struct Oneshot {
    server: Server,
    budgets: Budgets,
}

fn oneshot_setup(net: &SteppingNet, workers: usize) -> CoreResult<Oneshot> {
    let config = ServeConfig::builder()
        .workers(workers)
        .session(session_config())
        .build();
    let server = Server::new(net, config)?;
    let budgets = Budgets::new(net)?;
    // warm-up: every subnet's plans on every worker, twice over
    let x = Tensor::zeros(Shape::of(&[1, 128]));
    for _ in 0..2 {
        let tickets: Vec<Ticket> = (0..64)
            .map(|i| {
                let (lo, hi) = budgets.direct[i % 4];
                server.submit(Request::with_budget(x.clone(), 0.5 * (lo + hi)))
            })
            .collect::<Result<_, _>>()
            .map_err(stepping_core::SteppingError::from)?;
        for t in tickets {
            let r = t.wait()?;
            server.release(r.session);
        }
    }
    Ok(Oneshot { server, budgets })
}

fn oneshot_phase(
    sys: &Oneshot,
    rate: f64,
    secs: f64,
    seed: u64,
    inputs: &[Tensor],
    tracer: &mut Tracer,
) -> Phase {
    let mut rng = Rng::new(seed);
    let due = poisson(&mut rng, rate, secs);
    let plan: Vec<(usize, usize, f64)> = due
        .iter()
        .map(|_| {
            let k = rng.below(4);
            (k, rng.below(inputs.len()), sys.budgets.draw(k, &mut rng))
        })
        .collect();
    let cpu0 = process_cpu();
    let t0 = Instant::now() + Duration::from_millis(2);
    let mut phase = Phase::new(secs, t0, 0);
    let server = &sys.server;
    let tracer = std::cell::RefCell::new(tracer);
    drive(
        t0,
        &due,
        |i, due_at, pending: &mut Vec<OneshotPending>, phase| {
            let (k, input, budget) = plan[i];
            let start = Instant::now();
            phase.late.push(us(start.saturating_duration_since(due_at)));
            phase.attempted += 1;
            phase.unit_sent(due_at);
            let submitted = server.submit(Request::with_budget(inputs[input].clone(), budget));
            let end = Instant::now();
            phase.submit_call.push(us(end - start));
            let mut t = tracer.borrow_mut();
            let span = t.record("request", due_at, end, NONE, i as u64);
            t.record("harness.late", due_at, start, span, i as u64);
            t.record("serve.submit", start, end, span, i as u64);
            match submitted {
                Ok(ticket) => pending.push(OneshotPending {
                    ticket,
                    due: due_at,
                    sent: start,
                    subnet: k,
                    input,
                    span,
                    n: i as u64,
                }),
                Err(e) => phase.fail(format!("submit refused: {e}")),
            }
        },
        |p, result, seen, _pending, phase| {
            tracer.borrow_mut().finish(p.span, seen);
            let r = match result {
                Ok(r) => r,
                Err(e) => return phase.fail(format!("request failed: {e}")),
            };
            server.release(r.session);
            phase.answers += 1;
            let latency = us(seen - p.due);
            let degraded = r.outcome.is_degraded();
            if degraded {
                phase.degraded += 1;
            }
            if r.subnet != p.subnet && !(degraded && r.subnet < p.subnet) {
                return phase.wrong(format!(
                    "budget for subnet {} served subnet {} ({:?})",
                    p.subnet, r.subnet, r.outcome
                ));
            }
            phase.completed += 1;
            let at = phase.at(p.due);
            phase.first.push(at, latency);
            if r.subnet > 0 {
                phase.upgrade.push(at, latency);
            }
            if r.subnet == 3 {
                phase.full.push(at, latency);
            }
            if !degraded && latency <= LIMIT_US {
                phase.unit_good(p.due);
            }
            phase.handoff.push(us(seen - p.sent) - r.latency_us);
            phase.batch.push(r.batch_size as f64);
            phase.subnet.push(r.subnet as f64);
            if should_check(seed, p.n) {
                phase.to_check.push((p.input, r.subnet, r.logits));
            }
        },
        |p: &OneshotPending| &p.ticket as &dyn Waitable,
        &mut phase,
    );
    phase.cpu = cpu_since(cpu0);
    phase
}

fn cpu_since(start: Option<Duration>) -> Duration {
    match (start, process_cpu()) {
        (Some(a), Some(b)) => b.saturating_sub(a),
        _ => Duration::ZERO,
    }
}

// --------------------------------------------------------------- stepping

struct SessionPending {
    ticket: RoutedTicket,
    due: Instant,
    sent: Instant,
    /// Subnet this request should answer at.
    level: usize,
    input: usize,
    span: SpanId,
    n: u64,
    clean: bool,
}

struct Stepping {
    router: Router,
    budgets: Budgets,
}

fn stepping_setup(net: &SteppingNet) -> CoreResult<Stepping> {
    let serve = ServeConfig::builder()
        .workers(1)
        .session(session_config())
        .build();
    let router = Router::launch(net, &serve, &RouterConfig::builder().replicas(2).build())?;
    let budgets = Budgets::new(net)?;
    let x = Tensor::zeros(Shape::of(&[1, 128]));
    for round in 0..2u64 {
        // 32 keys reach both replicas; each session walks to the top
        let mut sessions: Vec<u64> = Vec::new();
        for key in 0..32u64 {
            let r = router
                .submit(key + 100 * round, Request::at_subnet(x.clone(), 0))
                .map_err(stepping_core::SteppingError::from)?
                .wait()?;
            sessions.push(r.session);
        }
        for step in 0..3 {
            let tickets: Vec<RoutedTicket> = sessions
                .iter()
                .map(|&s| router.upgrade(s, Some(budgets.step[step])))
                .collect::<Result<_, _>>()
                .map_err(stepping_core::SteppingError::from)?;
            for t in tickets {
                t.wait()?;
            }
        }
        for s in sessions {
            router.release(s);
        }
    }
    Ok(Stepping { router, budgets })
}

fn stepping_phase(
    sys: &Stepping,
    rate: f64,
    secs: f64,
    seed: u64,
    inputs: &[Tensor],
    tracer: &mut Tracer,
) -> Phase {
    let mut rng = Rng::new(seed);
    let zipf = Zipf::new(USERS, 1.0);
    let due = poisson(&mut rng, rate, secs);
    let plan: Vec<(u64, usize)> = due
        .iter()
        .map(|_| (zipf.draw(&mut rng) as u64, rng.below(inputs.len())))
        .collect();
    let top = sys.budgets.direct.len() - 1;
    let cpu0 = process_cpu();
    let t0 = Instant::now() + Duration::from_millis(2);
    let mut phase = Phase::new(secs, t0, sys.router.replica_count());
    let router = &sys.router;
    let budgets = &sys.budgets;
    let tracer = std::cell::RefCell::new(tracer);
    drive(
        t0,
        &due,
        |i, due_at, pending: &mut Vec<SessionPending>, phase| {
            let (key, input) = plan[i];
            let start = Instant::now();
            phase.late.push(us(start.saturating_duration_since(due_at)));
            phase.attempted += 1;
            phase.unit_sent(due_at);
            let submitted = router.submit(key, Request::at_subnet(inputs[input].clone(), 0));
            let end = Instant::now();
            phase.submit_call.push(us(end - start));
            let mut t = tracer.borrow_mut();
            let span = t.record("session", due_at, end, NONE, i as u64);
            t.record("harness.late", due_at, start, span, i as u64);
            t.record("router.submit", start, end, span, i as u64);
            match submitted {
                Ok(ticket) => {
                    phase.per_replica[ticket.replica()] += 1;
                    pending.push(SessionPending {
                        ticket,
                        due: due_at,
                        sent: start,
                        level: 0,
                        input,
                        span,
                        n: i as u64,
                        clean: true,
                    });
                }
                Err(e) => phase.fail(format!("session refused: {e}")),
            }
        },
        |mut p, result, seen, pending, phase| {
            let r = match result {
                Ok(r) => r,
                Err(e) => {
                    tracer.borrow_mut().finish(p.span, seen);
                    return phase.fail(format!("step to subnet {} failed: {e}", p.level));
                }
            };
            phase.answers += 1;
            let latency = us(seen - p.sent);
            let degraded = r.outcome.is_degraded();
            if r.subnet != p.level {
                // a shed or degraded upgrade does not advance the session
                tracer.borrow_mut().finish(p.span, seen);
                router.release(r.session);
                if degraded {
                    phase.degraded += 1;
                }
                let what = format!(
                    "step answered subnet {} instead of {} ({:?})",
                    r.subnet, p.level, r.outcome
                );
                // shedding an upgrade to the cached answer is the server's
                // overload behaviour; any other mismatch is a wrong answer
                return if r.outcome == Outcome::Shed {
                    phase.fail(what)
                } else {
                    phase.wrong(what)
                };
            }
            if degraded {
                phase.degraded += 1;
                p.clean = false;
            }
            let at = phase.at(p.due);
            if p.level == 0 {
                let first = us(seen - p.due);
                phase.first.push(at, first);
                p.clean &= first <= LIMIT_US;
            } else {
                phase.upgrade.push(at, latency);
                p.clean &= latency <= LIMIT_US;
                tracer
                    .borrow_mut()
                    .record("serve.answer", p.sent, seen, p.span, p.n);
            }
            phase.handoff.push(latency - r.latency_us);
            phase.batch.push(r.batch_size as f64);
            phase.subnet.push(r.subnet as f64);
            if p.level > 0 {
                phase.reuse.push(r.cache_reuse);
            }
            if should_check(seed, p.n * 4 + p.level as u64) {
                phase.to_check.push((p.input, r.subnet, r.logits.clone()));
            }
            if p.level == top {
                tracer.borrow_mut().finish(p.span, seen);
                phase.full.push(at, us(seen - p.due));
                phase.completed += 1;
                router.release(r.session);
                if p.clean {
                    phase.unit_good(p.due);
                }
                return;
            }
            let start = Instant::now();
            phase.attempted += 1;
            let upgraded = router.upgrade(r.session, Some(budgets.step[p.level]));
            let end = Instant::now();
            phase.upgrade_call.push(us(end - start));
            tracer
                .borrow_mut()
                .record("router.upgrade", start, end, p.span, p.n);
            match upgraded {
                Ok(ticket) => pending.push(SessionPending {
                    ticket,
                    sent: start,
                    level: p.level + 1,
                    ..p
                }),
                Err(e) => {
                    tracer.borrow_mut().finish(p.span, end);
                    router.release(r.session);
                    phase.fail(format!("upgrade refused: {e}"));
                }
            }
        },
        |p: &SessionPending| &p.ticket as &dyn Waitable,
        &mut phase,
    );
    phase.cpu = cpu_since(cpu0);
    phase
}

// ----------------------------------------------------------------- common

/// `SteppingNet::forward` (the masked reference path) of the input pool,
/// computed once per input and subnet.
struct Oracle {
    net: SteppingNet,
    memo: HashMap<(usize, usize), Vec<u32>>,
}

impl Oracle {
    fn new() -> Self {
        Oracle {
            net: serving_net(),
            memo: HashMap::new(),
        }
    }

    /// Compares each sampled answer bit for bit with the masked forward at
    /// the served subnet.
    fn check(&mut self, inputs: &[Tensor], phase: &mut Phase) {
        for (input, subnet, logits) in std::mem::take(&mut phase.to_check) {
            let net = &mut self.net;
            let want = self.memo.entry((input, subnet)).or_insert_with(|| {
                net.forward(&inputs[input], subnet, false)
                    .map(|t| t.data().iter().map(|v| v.to_bits()).collect())
                    .unwrap_or_default()
            });
            let got: Vec<u32> = logits.data().iter().map(|v| v.to_bits()).collect();
            if *want != got {
                phase.wrong(format!(
                    "served logits of input {input} at subnet {subnet} differ from the masked forward"
                ));
            }
        }
    }
}

enum System {
    Oneshot(Oneshot),
    Stepping(Stepping),
}

impl System {
    fn phase(
        &self,
        rate: f64,
        secs: f64,
        seed: u64,
        inputs: &[Tensor],
        tracer: &mut Tracer,
    ) -> Phase {
        match self {
            System::Oneshot(s) => oneshot_phase(s, rate, secs, seed, inputs, tracer),
            System::Stepping(s) => stepping_phase(s, rate, secs, seed, inputs, tracer),
        }
    }

    fn shutdown(&self) {
        match self {
            System::Oneshot(s) => s.server.shutdown(),
            System::Stepping(s) => s.router.shutdown(),
        }
    }
}

fn hist(before: &Snapshot, after: &Snapshot, base: &str) -> HistSnapshot {
    after.hist_merged(base).since(&before.hist_merged(base))
}

fn counter_sum(snap: &Snapshot, base: &str) -> u64 {
    snap.counters
        .iter()
        .filter(|(n, _)| n == base || n.starts_with(&format!("{base}{{")))
        .map(|(_, v)| *v)
        .sum()
}

/// Runs `oneshot_budget` (`stepping = false`) or `stepping_zipf`.
pub fn run(args: &Args, stepping: bool, out: &mut RunResult, tracer: &mut Tracer) {
    let inputs = inputs(args.seed);
    let workers = cores();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut system = None;
    for _ in 0..SETUP_REPS {
        if let Some(old) = system.take() {
            System::shutdown(&old);
        }
        let t = Instant::now();
        let net = serving_net();
        let built = if stepping {
            stepping_setup(&net).map(System::Stepping)
        } else {
            oneshot_setup(&net, workers).map(System::Oneshot)
        };
        setups.push(t.elapsed().as_secs_f64());
        match built {
            Ok(s) => system = Some(s),
            Err(e) => {
                out.check(false, || format!("set-up failed: {e}"));
                return;
            }
        }
    }
    let system = system.expect("set up above");
    let mut oracle = Oracle::new();
    out.metric("setup_s", crate::stats::median_of(&setups), "s");
    out.note("setup_reps", SETUP_REPS);
    out.note("workers_total", if stepping { 2 } else { workers });

    let (ref_rate, ladder, unit) = if stepping {
        (STEPPING_REF_SPS, ladder(STEPPING_LADDER), "sessions/s")
    } else {
        (ONESHOT_REF_RPS, ladder(ONESHOT_LADDER), "requests/s")
    };
    out.note("reference_rate", format!("{ref_rate} {unit}"));
    let secs = args.seconds as f64;

    if tracer.is_on() {
        traced(
            &system,
            args,
            ref_rate,
            secs,
            &inputs,
            &mut oracle,
            out,
            tracer,
        );
        system.shutdown();
        return;
    }

    // reference phase: latency, failures, degradation and CPU at a fixed rate
    let mut off = Tracer::new(false);
    let mut reference = system.phase(ref_rate, 0.5 * secs, args.seed, &inputs, &mut off);
    oracle.check(&inputs, &mut reference);
    // ladder: the highest fixed rate at which RUNG_GOOD of the units meet
    // the limit, by bisection over the fixed rungs (pass below, fail
    // above). Interference from outside the process only makes a rung
    // fail, so a rung that fails is run once more before the search goes
    // down: one stall does not set the rate. Each rung runs for a
    // twentieth of `--seconds`. The rate found is a note, not a gated
    // metric: between runs of the same code it spread wider than any
    // usable bound (see stepbench/README.md).
    let rung_secs = secs / 20.0;
    let mut tried = Vec::new();
    let mut rung = |index: usize, attempt: u64| -> Option<f64> {
        let rate = ladder[index];
        let seed = args.seed ^ ((index as u64 + 1) << 32) ^ (attempt << 48);
        let mut phase = system.phase(rate, rung_secs, seed, &inputs, &mut off);
        oracle.check(&inputs, &mut phase);
        // answers that fail a check are wrong at any rate
        out.wrong(phase.wrong, &phase.wrong_examples);
        let good = phase.good_share();
        tried.push(format!("{rate}:{good:.3}"));
        (good >= RUNG_GOOD).then(|| phase.completed_rate())
    };
    let (mut lo, mut hi) = (None::<(usize, f64)>, ladder.len());
    while hi > lo.map_or(0, |(l, _)| l + 1) {
        let mid = (lo.map_or(0, |(l, _)| l + 1) + hi) / 2;
        match rung(mid, 0).or_else(|| rung(mid, 1)) {
            Some(done) => lo = Some((mid, done)),
            None => hi = mid,
        }
    }
    system.shutdown();
    out.note("ladder", tried.join(" "));
    out.note("ladder_limit_us", LIMIT_US);
    out.note("ladder_good_share", RUNG_GOOD);
    out.note("rung_seconds", rung_secs);
    out.note(
        "max_rate.rung",
        lo.map_or("none".to_string(), |(l, _)| ladder[l].to_string()),
    );
    out.note("max_rate_rps", lo.map_or(f64::NAN, |(_, done)| done));
    end_to_end(&mut reference, stepping, out);
}

fn end_to_end(p: &mut Phase, stepping: bool, out: &mut RunResult) {
    p.report_failures(out);
    out.latencies(&mut p.first, &mut p.upgrade, &mut p.full);
    out.metric(
        "ok_frac",
        1.0 - p.failed as f64 / p.attempted.max(1) as f64,
        "frac",
    );
    out.metric(
        "met_frac",
        1.0 - p.degraded as f64 / p.answers.max(1) as f64,
        "frac",
    );
    // process CPU over the whole phase (every thread: harness, router,
    // workers) per answer
    out.metric("cpu_us_per_op", us(p.cpu) / p.answers.max(1) as f64, "us");
    out.note(
        "cpu_op",
        if stepping {
            "request (4 per session)"
        } else {
            "request"
        },
    );
    out.note("harness.gen_late_us_p50", p.late.median());
    out.note("harness.gen_late_us_p99", p.late.tail().0);
    for f in &p.failures {
        out.note("failure", f);
    }
}

/// The traced run: the reference phase untraced, then traced with the
/// metrics registry recording, then the layer metrics both allow.
#[allow(clippy::too_many_arguments)]
fn traced(
    system: &System,
    args: &Args,
    rate: f64,
    secs: f64,
    inputs: &[Tensor],
    oracle: &mut Oracle,
    out: &mut RunResult,
    tracer: &mut Tracer,
) {
    let stepping = matches!(system, System::Stepping(_));
    let phase_secs = 0.3 * secs;
    let mut off = Tracer::new(false);
    stepping_metrics::set_runtime_enabled(false);
    let mut plain = system.phase(rate, phase_secs, args.seed, inputs, &mut off);
    stepping_metrics::set_runtime_enabled(true);
    let registry = MetricsRegistry::global();
    let before = registry.snapshot();
    let mut p = system.phase(rate, phase_secs, args.seed, inputs, tracer);
    let after = registry.snapshot();
    stepping_metrics::set_runtime_enabled(false);
    oracle.check(inputs, &mut p);
    p.report_failures(out);
    plain.report_failures(out);

    let e2e = |ph: &mut Phase| {
        if stepping {
            ph.full.all().mean()
        } else {
            ph.first.all().mean()
        }
    };
    let (traced_mean, plain_mean) = (e2e(&mut p), e2e(&mut plain));
    out.metric(
        "harness.trace_overhead_frac",
        traced_mean / plain_mean - 1.0,
        "frac",
    );
    out.metric("harness.gen_late_us_p50", p.late.median(), "us");
    out.metric("harness.gen_late_us_p99", p.late.tail().0, "us");

    // registry series over the traced phase
    let q = hist(&before, &after, "serve.queue_wait_ns");
    let fwd = hist(&before, &after, "serve.forward_ns");
    let reply = hist(&before, &after, "serve.reply_ns");
    let form = hist(&before, &after, "serve.batch_form_ns");
    let lock = hist(&before, &after, "serve.lock_wait_ns");
    let depth = hist(&before, &after, "serve.lane_depth");
    let c = |name: &str| counter_sum(&after, name) - counter_sum(&before, name);
    let admitted = c("serve.admitted").max(1) as f64;
    let busy_ns = c("serve.worker_busy_ns") as f64;
    let workers = if stepping { 2.0 } else { cores() as f64 };

    let mut layer = |name: &str, v: f64, unit: &str| out.metric(name, v, unit);
    if !stepping {
        layer("serve.submit_us_p50", p.submit_call.median(), "us");
        layer("serve.submit_us_p99", p.submit_call.tail().0, "us");
    } else {
        layer("router.submit_us_p50", p.submit_call.median(), "us");
        layer("router.submit_us_p99", p.submit_call.tail().0, "us");
        layer("serve.upgrade_call_us_p50", p.upgrade_call.median(), "us");
        let total: u64 = p.per_replica.iter().sum();
        let max = p.per_replica.iter().copied().max().unwrap_or(0);
        layer("router.max_share", max as f64 / total.max(1) as f64, "frac");
        layer("router.reroutes", c("router.reroute") as f64, "count");
        layer("core.cache_reuse_mean", p.reuse.mean(), "frac");
    }
    layer(
        "serve.rejected_frac",
        c("serve.rejected") as f64 / admitted,
        "frac",
    );
    layer("serve.shed_frac", c("serve.shed") as f64 / admitted, "frac");
    layer(
        "serve.cache_hit_frac",
        c("serve.cache_hit") as f64 / admitted,
        "frac",
    );
    // registry histograms have log2 buckets: means are exact, quantiles
    // are the upper bound of the bucket they fall in
    layer("serve.queue_wait_us_mean", q.mean() / 1e3, "us");
    layer(
        "serve.queue_wait_us_p99",
        q.quantile(0.99) as f64 / 1e3,
        "us",
    );
    layer(
        "serve.lock_wait_us_p99",
        lock.quantile(0.99) as f64 / 1e3,
        "us",
    );
    layer("serve.lane_depth_p90", depth.quantile(0.9) as f64, "jobs");
    layer("serve.batch_size_mean", p.batch.mean(), "rows");
    layer("serve.batch_form_us_mean", form.mean() / 1e3, "us");
    layer("serve.forward_us_mean", fwd.mean() / 1e3, "us");
    layer(
        "serve.forward_us_p99",
        fwd.quantile(0.99) as f64 / 1e3,
        "us",
    );
    layer(
        "serve.worker_busy_frac",
        busy_ns / (workers * phase_secs * 1e9),
        "frac",
    );
    layer("serve.handoff_us_p50", p.handoff.median(), "us");
    layer("runtime.served_subnet_mean", p.subnet.mean(), "subnet");

    // reconcile: mean end-to-end time against the mean time each layer on
    // the blocking path holds a request (harness lateness, the front-door
    // call, queue wait, the batch's forward and reply). Means add; medians
    // do not.
    let per_request = q.mean() / 1e3 + fwd.mean() / 1e3 + reply.mean() / 1e3;
    let requests_per_unit = if stepping { 4.0 } else { 1.0 };
    let calls = p.submit_call.mean()
        + if stepping {
            3.0 * p.upgrade_call.mean()
        } else {
            0.0
        };
    let accounted = p.late.mean() + calls + requests_per_unit * per_request;
    let unaccounted = 1.0 - accounted / traced_mean;
    out.metric("harness.unaccounted_frac", unaccounted, "frac");
    out.note(
        "reconcile",
        format!(
            "e2e mean {traced_mean:.1} us = late {:.1} + calls {calls:.1} + {requests_per_unit} x \
             (queue {:.1} + forward {:.1} + reply {:.1}) + unaccounted {:.1}",
            p.late.mean(),
            q.mean() / 1e3,
            fwd.mean() / 1e3,
            reply.mean() / 1e3,
            traced_mean - accounted
        ),
    );
    out.note("harness.spans", tracer.spans().len());
}
