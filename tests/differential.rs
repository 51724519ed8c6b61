//! One differential harness for every fast path of the engine and the
//! simulators.
//!
//! The paper's simulators (SKnO, Thm 4.1; SID, Thm 4.5; naming,
//! Thm 4.6) and every engine fast path (batched stepping, in-place
//! hooks, SKnO's `RunIndex`, topology scheduling, the count backend,
//! epochs) claim the behaviour of a reference. Each claim is a row of
//! the `rows!` table below, `name: space, reference => candidate,
//! relation`, or one of the in-law rows after it:
//!
//! * **bitwise** (≡): the same final configuration, [`RunStats`] and
//!   step count, plus the same trace where both sides record one and the
//!   same state after a scalar coda where both run one (which only
//!   agrees if both left the shared RNG stream at the same position);
//! * **subsequence**: the same run, and the candidate's sampled trace is
//!   a subsequence of the reference's full one;
//! * **replay**: a dense run's trace, folded onto counts, ends on the
//!   dense run's multiset;
//! * **in law** (≈), for paths that consume the RNG differently: mean
//!   convergence steps over a seed window within a ratio band, or means
//!   at a fixed budget within 4 standard errors.
//!
//! The table's rows draw their cases from one scenario generator,
//! [`Space`]: model × program × topology × adversary × backend ×
//! inputs × seed / steps / batch. The `proptest` shim shrinks a failing
//! case to fewer agents, fewer steps and a smaller batch and seed, and
//! reports the minimal scenario.

use std::fmt::Debug;
use std::ops::{Range, RangeInclusive};

use proptest::prelude::*;
use proptest::test_runner::{check, TestCaseError, TestRng};

use ppfts::core::{NamedSid, Sid, Skno};
use ppfts::engine::convergence::stably;
use ppfts::engine::{
    Batched, BoundedStrategy, Epochs, Exec, ExecBackend, Family, FullTrace, Model, NoOmissions,
    OmissionSchedule, OmissionStrategy, OneWayModel, OneWayProgram, Program, RateStrategy,
    RunOutcome, RunStats, Runner, SampledTrace, ScheduledEvent, Scheduler, StatsOnly, StepRecord,
    Stop, Trace, TraceSink, TwoWayModel, TwoWayProgram, TwoWayRunner, UniformScheduler,
};
use ppfts::population::{
    Configuration, CountConfiguration, Multiset, Population, Semantics, State, TableProtocol,
    Topology, TwoWayProtocol,
};
use ppfts::protocols::{
    majority_states as ms, ApproximateMajority, Epidemic, ExactMajority, ExactMajorityState,
    LeaderElection, LeaderState, MajorityState, MaxGossip, Pairing, PairingState, Remainder,
    RemainderState,
};

type TestResult = Result<(), TestCaseError>;

// The scenario generator.

/// One-way epidemic: the reactor catches whatever the starter carries.
struct Or;
impl OneWayProgram for Or {
    type State = bool;
    fn on_receive(&self, s: &bool, r: &bool) -> bool {
        *s || *r
    }
}

/// The program under test: `Or` and the simulators run one-way, the
/// others two-way. A simulator runs `Inner`; SKnO has bound `o`.
#[derive(Clone, Copy, Debug)]
enum Prog {
    Or,
    Epidemic,
    Pairing,
    MaxGossip,
    Skno(Inner, u32),
    Sid(Inner),
    NamedSid(Inner),
}

#[derive(Clone, Copy, Debug)]
enum Inner {
    Epidemic,
    Pairing,
}

/// The interaction graph (`Rr` is 3-regular). `Grid` and `Rr` round an
/// odd agent count up; the extra agent gets input 0.
#[derive(Clone, Copy, Debug)]
enum Topo {
    None,
    Complete,
    Ring,
    Star,
    Grid,
    Rr,
}

/// The omission adversary. `Bounded` spends at most SKnO's `o`;
/// `AtMostOne` and `AtSteps` omit at fixed steps; `Targeted` aims
/// windowed one-shot events at agents, so its faults depend on the
/// drawn pairs.
#[derive(Clone, Copy, Debug)]
enum Adv {
    None,
    Rate,
    Bounded,
    AtMostOne,
    AtSteps,
    Targeted,
}

/// One generated case; each row reads the fields it needs.
#[derive(Clone, Debug)]
struct Scenario {
    model: Model,
    prog: Prog,
    topo: Topo,
    adv: Adv,
    /// Whether two-way programs run on the count backend.
    counts: bool,
    /// One input per agent, mapped onto the program's states.
    inputs: Vec<u8>,
    /// Omission probability in percent.
    rate: u32,
    /// Also picks the `Rr` graph, `AtMostOne`'s step, `Targeted`'s
    /// agents and the sampled sink's stride.
    seed: u64,
    steps: u64,
    batch: u64,
}

/// The fields of a [`Scenario`] that shrink.
type Numbers = (Vec<u8>, u32, u64, u64, u64);

impl Scenario {
    fn with(&self, numbers: Numbers) -> Self {
        let mut s = self.clone();
        (s.inputs, s.rate, s.seed, s.steps, s.batch) = numbers;
        s
    }

    fn topology(&self) -> Option<Topology> {
        let (n, half) = (self.inputs.len(), self.inputs.len().div_ceil(2));
        let t = match self.topo {
            Topo::None => return None,
            Topo::Complete => Topology::complete(n),
            Topo::Ring => Topology::ring(n),
            Topo::Star => Topology::star(n),
            Topo::Grid => Topology::grid2d(2, half),
            Topo::Rr => Topology::random_regular(2 * half, 3, self.seed % 1000),
        };
        Some(t.unwrap())
    }

    fn adversary(&self) -> Box<dyn OmissionStrategy> {
        let rate = f64::from(self.rate) / 100.0;
        match (self.adv, self.prog) {
            (Adv::None, _) => Box::new(NoOmissions),
            (Adv::Rate, _) => Box::new(RateStrategy::new(rate)),
            (Adv::Bounded, Prog::Skno(_, o)) => Box::new(BoundedStrategy::new(rate, o.into())),
            (Adv::Bounded, p) => unreachable!("{p:?} has no omission bound"),
            (Adv::AtMostOne, _) => Box::new(OmissionSchedule::at_steps([self.seed % 400])),
            (Adv::AtSteps, _) => Box::new(OmissionSchedule::at_steps([2, 3, 40, 151])),
            (Adv::Targeted, _) => {
                // Windows of 3 steps: whether an event fires at all
                // depends on the pairs drawn in its window.
                let (n, offset) = (self.inputs.len() as u64, self.seed % 50);
                let events = (0..8)
                    .map(|k| ScheduledEvent {
                        from: 50 * k + offset,
                        until: 50 * k + offset + 3,
                        target: Some(((self.seed + k) % n) as usize),
                    })
                    .collect();
                Box::new(OmissionSchedule::new(events, vec![], None, 0))
            }
        }
    }
}

/// A row's scenario space: a case picks a model, program, topology and
/// adversary from the lists and draws the numbers from the ranges.
struct Space {
    models: &'static [Model],
    progs: &'static [Prog],
    topos: &'static [Topo],
    advs: &'static [Adv],
    counts: bool,
    rates: RangeInclusive<u32>,
    agents: Range<usize>,
    steps: Range<u64>,
    batch: Range<u64>,
}

/// The defaults rows override.
#[rustfmt::skip]
const ANY: Space = Space {
    models: IO, progs: &[Prog::Or], topos: &[Topo::None], advs: &[Adv::None], counts: false,
    rates: 0..=100, agents: 2..10, steps: 0..300, batch: 1..64,
};

impl Space {
    fn numbers(&self) -> impl Strategy<Value = Numbers> {
        let inputs = prop::collection::vec(0u8..50, self.agents.clone());
        let (steps, batch) = (self.steps.clone(), self.batch.clone());
        (inputs, self.rates.clone(), 0u64..10_000, steps, batch)
    }
}

impl Strategy for Space {
    type Value = Scenario;

    fn generate(&self, rng: &mut TestRng) -> Scenario {
        fn pick<T: Copy>(rng: &mut TestRng, xs: &[T]) -> T {
            xs[rng.below(xs.len() as u64) as usize]
        }
        let (model, prog) = (pick(rng, self.models), pick(rng, self.progs));
        let (topo, adv) = (pick(rng, self.topos), pick(rng, self.advs));
        let (inputs, rate, seed, steps, batch) = self.numbers().generate(rng);
        let counts = self.counts;
        Scenario {
            model,
            prog,
            topo,
            adv,
            counts,
            inputs,
            rate,
            seed,
            steps,
            batch,
        }
    }

    /// Shrinks the numbers, agents first; the picks stay.
    fn shrink(&self, s: &Scenario) -> Vec<Scenario> {
        let numbers = (s.inputs.clone(), s.rate, s.seed, s.steps, s.batch);
        let smaller = self.numbers().shrink(&numbers);
        smaller.into_iter().map(|n| s.with(n)).collect()
    }
}

const ONE_WAY: &[Model] = Model::ALL.split_at(4).1;
const TWO_WAY: &[Model] = Model::ALL.split_at(4).0;
const I3_I4: &[Model] = ONE_WAY.split_at(4).1;
const I3: &[Model] = &[Model::OneWay(OneWayModel::I3)];
const IO: &[Model] = &[Model::OneWay(OneWayModel::Io)];
const TW: &[Model] = &[Model::TwoWay(TwoWayModel::Tw)];
const T1: &[Model] = &[Model::TwoWay(TwoWayModel::T1)];

// Paths and observations.

/// How a side executes its steps: `steps` calls of `step()`, or `run`
/// in batches of 1, of the scenario's `batch`, or of `batch` under
/// `Stop::until(never)`.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Run {
    Step,
    Single,
    Batched,
    Until,
}

/// `Stats` is passive, so batched runs take the in-place hooks; `Full`
/// and `Sampled` record, so every run takes the pure outcome functions.
#[derive(Clone, Copy, Debug)]
enum Sink {
    Stats,
    Full,
    Sampled,
}

/// One path through the engine.
#[derive(Clone, Copy, Debug)]
struct Side {
    /// Whether the scenario's topology is used: its arcs are dealt and
    /// simulators are built graphical on it. Otherwise the scheduler is
    /// uniform and simulators are anonymous.
    topology: bool,
    /// SKnO's scan reference instead of its `RunIndex`.
    scan: bool,
    run: Run,
    sink: Sink,
    /// `step()` calls after the snapshot, which pin the RNG position.
    coda: u64,
}

#[derive(Clone, Copy, Debug)]
enum Relation {
    Bitwise,
    Subsequence,
    /// Only the reference runs; its trace is replayed onto counts.
    Replay,
}

/// What one side observed; `coda` is the state after the coda.
#[derive(Debug)]
struct Obs<C, R> {
    config: C,
    stats: RunStats,
    steps: u64,
    trace: Option<Vec<R>>,
    coda: Option<(C, RunStats)>,
}

/// A side's trace sink as one type for every row; forwards every method.
struct AnySink<Q: State, F>(Box<dyn TraceSink<Q, F>>);

impl<Q: State, F> TraceSink<Q, F> for AnySink<Q, F> {
    fn wants_record(&self, index: u64, omissive: bool, changed: bool) -> bool {
        self.0.wants_record(index, omissive, changed)
    }
    fn is_passive(&self) -> bool {
        self.0.is_passive()
    }
    fn accept(&mut self, record: StepRecord<Q, F>) {
        self.0.accept(record);
    }
    fn trace(&self) -> Option<&Trace<Q, F>> {
        self.0.trace()
    }
    fn take_trace(&mut self) -> Option<Trace<Q, F>> {
        self.0.take_trace()
    }
}

/// Gives `$builder` the scenario's adversary and the side's sink, builds
/// it on the side's topology or the uniform scheduler, and observes it.
macro_rules! observe {
    ($case:expr, $side:expr, $builder:expr) => {{
        let mut adversary = $case.s.adversary();
        let sink = AnySink(match $side.sink {
            Sink::Stats => Box::new(StatsOnly),
            Sink::Full => Box::new(FullTrace::new()),
            Sink::Sampled => Box::new(SampledTrace::every(1 + $case.s.seed % 19)),
        });
        let builder = $builder.adversary(&mut *adversary).trace_sink(sink);
        match $case.topology.as_ref().filter(|_| $side.topology) {
            Some(t) => $case.observe(builder.topology(t.clone()).build().unwrap(), $side),
            None => $case.observe(builder.build().unwrap(), $side),
        }
    }};
}

/// One row applied to one scenario.
struct Case<'a> {
    s: &'a Scenario,
    topology: Option<Topology>,
    reference: Side,
    candidate: Side,
    relation: Relation,
}

impl<'a> Case<'a> {
    fn new(s: &'a Scenario, relation: Relation, reference: Side, candidate: Side) -> Self {
        let topology = s.topology();
        Case {
            s,
            topology,
            reference,
            candidate,
            relation,
        }
    }

    /// The inputs, padded with zeros to the topology's size.
    fn agents(&self) -> Vec<u8> {
        let len = self.s.inputs.len();
        let n = self.topology.as_ref().map_or(len, Topology::len);
        let padded = self.s.inputs.iter().copied().chain(std::iter::repeat(0));
        padded.take(n).collect()
    }

    fn bools(&self) -> Vec<bool> {
        self.agents().iter().map(|&x| x % 2 == 1).collect()
    }

    /// Checks the program `make` builds for a side's topology (`None`:
    /// anonymous) and scan flag, on the scenario's backend.
    fn run<M: Family, P: Program<M>>(
        &self,
        model: M,
        make: impl Fn(Option<&Topology>, bool) -> P,
        config: &Configuration<P::State>,
    ) -> TestResult {
        let builder = |side: &Side| {
            let topology = self.topology.as_ref().filter(|_| side.topology);
            Runner::builder(model, make(topology, side.scan)).seed(self.s.seed)
        };
        if !self.s.counts {
            return self.check(config, |side| {
                observe!(self, side, builder(side).config(config.clone()))
            });
        }
        let counts = CountConfiguration::from_dense(config);
        self.check(&counts, |side| {
            observe!(self, side, builder(side).population(counts.clone()))
        })
    }

    /// Checks SKnO, SID or `NamedSid` over `p`.
    fn simulate<P>(&self, model: OneWayModel, p: P, sims: &[P::State]) -> TestResult
    where
        P: TwoWayProtocol + Copy,
    {
        let n = sims.len();
        match self.s.prog {
            Prog::Skno(_, o) => {
                let make = |t: Option<&Topology>, scan: bool| {
                    let skno = t.map_or(Skno::new(p, o), |t| Skno::graphical(p, o, t.clone()));
                    if scan {
                        skno.scan_reference()
                    } else {
                        skno
                    }
                };
                self.run(model, make, &Skno::<P>::initial(sims))
            }
            Prog::Sid(_) => self.run(
                model,
                |t, _| t.map_or(Sid::new(p), |t| Sid::graphical(p, t.clone())),
                &Sid::<P>::initial(sims),
            ),
            Prog::NamedSid(_) => self.run(
                model,
                |t, _| t.map_or(NamedSid::new(p, n), |t| NamedSid::graphical(p, t.clone())),
                &NamedSid::<P>::initial(sims),
            ),
            p => unreachable!("{p:?} is not a simulator"),
        }
    }

    /// The step budget, ragged (not a multiple of the batch) when a side
    /// runs `Stop::until`, so that its last batch is a short one.
    fn steps(&self) -> u64 {
        let (steps, batch) = (self.s.steps, self.s.batch);
        let until = self.reference.run == Run::Until || self.candidate.run == Run::Until;
        steps + u64::from(until && steps.is_multiple_of(batch))
    }

    fn observe<M, P, S, A, T, C>(
        &self,
        mut r: Runner<M, P, S, A, T, C>,
        side: &Side,
    ) -> Obs<C, StepRecord<P::State, M::Fault>>
    where
        M: Family,
        P: Program<M>,
        S: Scheduler,
        A: OmissionStrategy,
        T: TraceSink<P::State, M::Fault>,
        C: ExecBackend<State = P::State> + Clone,
    {
        let steps = self.steps();
        let out = match side.run {
            Run::Step => {
                (0..steps).for_each(|_| drop(r.step().unwrap()));
                RunOutcome::Exhausted { steps }
            }
            Run::Single => r.run(Batched(1), Stop::steps(steps)).unwrap(),
            Run::Batched => r.run(Batched(self.s.batch), Stop::steps(steps)).unwrap(),
            Run::Until => r
                .run(Batched(self.s.batch), Stop::until(steps, |_| false))
                .unwrap(),
        };
        assert_eq!(out, RunOutcome::Exhausted { steps });
        let mut obs = Obs {
            config: r.config().clone(),
            stats: r.stats(),
            steps: r.steps(),
            trace: r.take_trace().map(|t| t.records().to_vec()),
            coda: None,
        };
        if side.coda > 0 {
            (0..side.coda).for_each(|_| drop(r.step().unwrap()));
            obs.coda = Some((r.config().clone(), r.stats()));
        }
        obs
    }

    /// Observes both sides and checks the row's relation.
    fn check<C, Q, F>(
        &self,
        initial: &C,
        observe: impl Fn(&Side) -> Obs<C, StepRecord<Q, F>>,
    ) -> TestResult
    where
        C: Population<State = Q> + PartialEq + Debug,
        Q: State,
        F: PartialEq + Debug,
    {
        let reference = observe(&self.reference);
        if let Relation::Replay = self.relation {
            return replays(initial, &reference);
        }
        let candidate = observe(&self.candidate);
        prop_assert_eq!(&reference.config, &candidate.config, "configuration");
        prop_assert_eq!(reference.stats, candidate.stats, "RunStats");
        prop_assert_eq!(reference.steps, candidate.steps, "step count");
        if let Relation::Subsequence = self.relation {
            let mut full = reference.trace.iter().flatten();
            for rec in candidate.trace.iter().flatten() {
                let index = rec.index;
                prop_assert!(
                    full.any(|r| r == rec),
                    "record {index} not in the full trace"
                );
            }
        } else if let (Some(a), Some(b)) = (&reference.trace, &candidate.trace) {
            prop_assert_eq!(a, b, "traces");
        }
        if let (Some(a), Some(b)) = (&reference.coda, &candidate.coda) {
            prop_assert_eq!(a, b, "after the coda, so the RNG positions differ");
        }
        Ok(())
    }
}

/// Folds a dense run's trace onto counts from `initial` and checks that
/// it lands on the run's final multiset.
fn replays<C, Q, F>(initial: &C, run: &Obs<C, StepRecord<Q, F>>) -> TestResult
where
    C: Population<State = Q>,
    Q: State,
{
    let groups = initial
        .counts()
        .iter()
        .map(|(q, k)| (q.clone(), k))
        .collect::<Vec<_>>();
    let mut counts = CountConfiguration::from_groups(groups);
    for r in run.trace.as_ref().expect("replay rows record a full trace") {
        let outcome = (r.new_starter.clone(), r.new_reactor.clone());
        let applied = counts.apply_outcome(&r.old_starter, &r.old_reactor, outcome);
        applied.expect("a dense run only interacts present agents");
    }
    prop_assert_eq!(counts.counts(), run.config.counts(), "replayed multiset");
    prop_assert_eq!(counts.len(), run.config.len());
    Ok(())
}

/// Checks `relation` between the `reference` and `candidate` runs of `s`.
fn relate(s: &Scenario, relation: Relation, (reference, candidate): (Side, Side)) -> TestResult {
    use PairingState::{Consumer, Paired, Producer, Spent};
    let case = Case::new(s, relation, reference, candidate);
    let bools = case.bools();
    let pairing = [Consumer, Producer, Paired, Spent];
    let pairs: Vec<_> = case
        .agents()
        .iter()
        .map(|&x| pairing[x as usize % 4])
        .collect();
    let values = case.agents().into_iter().map(u64::from).collect();
    match (s.prog, s.model) {
        (Prog::Or, Model::OneWay(m)) => case.run(m, |_, _| Or, &Configuration::new(bools)),
        (Prog::Epidemic, Model::TwoWay(m)) => {
            case.run(m, |_, _| Epidemic, &Configuration::new(bools))
        }
        (Prog::Pairing, Model::TwoWay(m)) => {
            case.run(m, |_, _| Pairing, &Configuration::new(pairs))
        }
        (Prog::MaxGossip, Model::TwoWay(m)) => {
            case.run(m, |_, _| MaxGossip, &Configuration::new(values))
        }
        (Prog::Skno(inner, _) | Prog::Sid(inner) | Prog::NamedSid(inner), Model::OneWay(m)) => {
            match inner {
                Inner::Epidemic => case.simulate(m, Epidemic, &bools),
                Inner::Pairing => case.simulate(m, Pairing, &pairs),
            }
        }
        (p, m) => panic!("{p:?} does not run under {m}"),
    }
}

// The table.

/// Each row is a property over its space, `name: space, relation,
/// [reference => candidate, ...];`: every case checks every pair.
macro_rules! rows {
    ($($(#[$doc:meta])* $name:ident: $space:expr, $rel:ident, [$($r:expr => $c:expr),+];)*) => {
        proptest! {$(
            $(#[$doc])*
            #[test]
            fn $name(s in $space) {
                $(relate(&s, Relation::$rel, ($r, $c))?;)+
            }
        )*}
    };
}

/// `step()` on the scenario's topology into a passive sink.
#[rustfmt::skip]
const STEP: Side = Side { topology: true, scan: false, run: Run::Step, sink: Sink::Stats, coda: 0 };
#[rustfmt::skip]
const BATCHED: Side = Side { run: Run::Batched, ..STEP };
#[rustfmt::skip]
const UNTIL: Side = Side { run: Run::Until, ..STEP };
#[rustfmt::skip]
const UNIFORM: Side = Side { topology: false, ..STEP };
/// `step()` into a recording sink: the pure outcome functions.
#[rustfmt::skip]
const PURE: Side = Side { sink: Sink::Full, ..STEP };
/// Full traces and a 67-step coda, so a divergence points at its draw.
#[rustfmt::skip]
const SCAN: Side = Side { sink: Sink::Full, coda: 67, ..STEP };
#[rustfmt::skip]
const SKNO_PAIRING: &[Prog] = &[
    Prog::Skno(Inner::Pairing, 0), Prog::Skno(Inner::Pairing, 1), Prog::Skno(Inner::Pairing, 2),
];

rows! {
    /// One-way `Or` under every one-way model, under a rate adversary and
    /// under targeted events, whose faults the bulk pair-draw path
    /// decides on the drawn pairs.
    step_eq_batched_one_way: Space { models: ONE_WAY, advs: &[Adv::Rate, Adv::Targeted],
        agents: 2..16,
        steps: 0..400, batch: 1..260, ..ANY }, Bitwise, [STEP => BATCHED];
    /// SKnO (token-carrying states) under I3 with a bounded adversary,
    /// the workload E5 measures.
    step_eq_batched_skno: Space { models: I3, progs: SKNO_PAIRING, advs: &[Adv::Bounded],
        rates: 5..=5, agents: 2..9, batch: 1..300, ..ANY }, Bitwise, [STEP => BATCHED];
    /// SID under IO.
    step_eq_batched_sid: Space { progs: &[Prog::Sid(Inner::Pairing)], agents: 2..9,
        batch: 1..300, ..ANY }, Bitwise, [STEP => BATCHED];
    /// Two-way Pairing under every two-way model and a rate adversary
    /// (the uniform side policy keeps every fault legal).
    step_eq_batched_two_way: Space { models: TWO_WAY, progs: &[Prog::Pairing],
        advs: &[Adv::Rate], agents: 2..12, steps: 0..400, batch: 1..260, ..ANY },
        Bitwise, [STEP => BATCHED];
    /// Max-gossip under TW, where most early steps change state: the
    /// write-if-changed fast path.
    step_eq_batched_gossip: Space { models: TW, progs: &[Prog::MaxGossip], ..ANY },
        Bitwise, [STEP => BATCHED];
    /// One-way `Or` on restricted graphs: batches thread the topology
    /// law through the same RNG stream.
    step_eq_batched_restricted: Space { models: ONE_WAY,
        topos: &[Topo::Ring, Topo::Star, Topo::Grid, Topo::Rr], advs: &[Adv::Rate],
        rates: 0..=60, agents: 4..14, steps: 0..400, batch: 1..128, ..ANY },
        Bitwise, [STEP => BATCHED];
    /// Graphical SID on restricted graphs, its adjacency filter on.
    step_eq_batched_sid_restricted: Space { progs: &[Prog::Sid(Inner::Epidemic)],
        topos: &[Topo::Ring, Topo::Star, Topo::Rr], advs: &[Adv::Rate], rates: 0..=30,
        agents: 4..12, batch: 1..96, ..ANY }, Bitwise, [STEP => BATCHED];
    /// Graphical SID on a random regular graph under IO: the path and
    /// setting of the `sid-sparse` benchmark workload.
    step_eq_until_sid_rr: Space { progs: &[Prog::Sid(Inner::Epidemic)], topos: &[Topo::Rr],
        agents: 6..20, steps: 0..400, batch: 1..128, ..ANY }, Bitwise, [STEP => UNTIL];
    /// Max-gossip under TW on the uniform scheduler.
    step_eq_until_gossip: Space { models: TW, progs: &[Prog::MaxGossip], ..ANY },
        Bitwise, [STEP => UNTIL];
    /// SKnO's hand-written in-place hooks under I3 (reactor-side
    /// detection) and I4 (starter-side).
    pure_eq_in_place_skno: Space { models: I3_I4, progs: SKNO_PAIRING, advs: &[Adv::Rate],
        rates: 0..=30, agents: 2..9, batch: 1..128, ..ANY }, Bitwise, [PURE => BATCHED];
    /// SID's in-place handshake, anonymous and on a star, whose leaves
    /// are pairwise non-adjacent: every handshake takes the adjacency path.
    pure_eq_in_place_sid: Space { progs: &[Prog::Sid(Inner::Pairing)],
        topos: &[Topo::None, Topo::Star], agents: 2..9, steps: 0..400, batch: 1..128, ..ANY },
        Bitwise, [PURE => BATCHED];
    /// `NamedSid`'s in-place naming and handshake, through both phases.
    pure_eq_in_place_named_sid: Space { progs: &[Prog::NamedSid(Inner::Pairing)],
        agents: 2..9, steps: 0..500, batch: 1..128, ..ANY }, Bitwise, [PURE => BATCHED];
    /// Batches feed a recording sink the records `step()` does.
    full_trace_step_eq_batched: Space { steps: 0..200, ..ANY },
        Bitwise, [PURE => Side { sink: Sink::Full, ..BATCHED }];
    /// The sampled sink keeps a subsequence of the full trace.
    sampled_trace_is_a_subsequence: Space { steps: 0..200, ..ANY },
        Subsequence, [PURE => Side { sink: Sink::Sampled, ..BATCHED }];
    /// Indexed SKnO ≡ its scan reference through `step()` and `Batched`
    /// (where deterministic adversaries take the bulk pair-drawing path),
    /// across models, bounds, adversaries, and anonymous, complete and
    /// restricted instances. The index draws nothing, so the codas agree.
    scan_eq_indexed_skno: Space { models: ONE_WAY,
        progs: &[Prog::Skno(Inner::Epidemic, 0), Prog::Skno(Inner::Epidemic, 1),
            Prog::Skno(Inner::Epidemic, 2)],
        topos: &[Topo::None, Topo::None, Topo::Complete, Topo::Ring, Topo::Star, Topo::Rr],
        advs: &[Adv::Bounded, Adv::Rate, Adv::AtMostOne, Adv::AtSteps, Adv::Targeted],
        rates: 1..=20,
        agents: 4..12, steps: 0..400, batch: 1..200, ..ANY }, Bitwise,
        [Side { scan: true, ..SCAN } => SCAN,
         Side { scan: true, run: Run::Batched, ..SCAN } => Side { run: Run::Batched, ..SCAN }];
    /// `TopologyScheduler` on the complete graph deals the uniform
    /// stream, one-way through `step()` and `Batched`…
    uniform_eq_complete_one_way: Space { models: ONE_WAY, topos: &[Topo::Complete],
        advs: &[Adv::Rate], agents: 2..16, steps: 0..400, batch: 1..260, ..ANY },
        Bitwise, [UNIFORM => STEP, UNIFORM => BATCHED];
    /// …and two-way under every model, where not one step record changes.
    uniform_eq_complete_two_way_traced: Space { models: TWO_WAY, progs: &[Prog::Epidemic],
        topos: &[Topo::Complete], advs: &[Adv::Rate], agents: 2..12, ..ANY },
        Bitwise, [Side { topology: false, ..PURE } => PURE];
    /// Count backends accept the complete topology (its law is uniform)
    /// and keep the uniform scheduler's stream.
    uniform_eq_complete_on_counts: Space { models: TW, progs: &[Prog::Epidemic],
        topos: &[Topo::Complete], counts: true, agents: 2..40, steps: 0..400, ..ANY },
        Bitwise, [Side { run: Run::Single, ..UNIFORM } => BATCHED];
    /// Graphical SKnO on the complete graph ≡ anonymous SKnO (token
    /// queues, sites, pending flags), through `step()` and `Batched`.
    anonymous_eq_graphical_skno: Space { models: I3_I4, progs: SKNO_PAIRING,
        topos: &[Topo::Complete], advs: &[Adv::Rate], rates: 0..=60, steps: 0..400,
        batch: 1..130, ..ANY }, Bitwise, [UNIFORM => STEP, UNIFORM => BATCHED];
    /// Graphical SID and `NamedSid` on the complete graph, where SID's
    /// adjacency guard is vacuous, batched.
    anonymous_eq_graphical_sid_batched: Space {
        progs: &[Prog::Sid(Inner::Pairing), Prog::NamedSid(Inner::Pairing)],
        topos: &[Topo::Complete], steps: 0..400, batch: 1..130, ..ANY },
        Bitwise, [UNIFORM => BATCHED];
    /// Graphical SID on the complete graph under every one-way model,
    /// traced and with a coda: its cached filtering flag short-circuits.
    anonymous_eq_graphical_sid_traced: Space { models: ONE_WAY,
        progs: &[Prog::Sid(Inner::Epidemic)], topos: &[Topo::Complete], advs: &[Adv::Rate],
        rates: 0..=30, ..ANY },
        Bitwise, [Side { topology: false, coda: 53, ..PURE } => Side { coda: 53, ..PURE }];
    /// `NamedSid` on the complete graph (its inner SID is topology-free
    /// either way).
    anonymous_eq_graphical_named_sid: Space { progs: &[Prog::NamedSid(Inner::Epidemic)],
        topos: &[Topo::Complete], advs: &[Adv::Rate], rates: 0..=20, agents: 2..8, ..ANY },
        Bitwise, [UNIFORM => STEP];
    /// Two-way Pairing under T1 omissions, replayed record by record.
    replay_two_way: Space { models: T1, progs: &[Prog::Pairing], advs: &[Adv::Rate],
        agents: 2..14, ..ANY }, Replay, [PURE => PURE];
    /// One-way `Or` under I3: omissive steps are recorded and replay too.
    replay_one_way: Space { models: I3, advs: &[Adv::Rate], agents: 2..14, ..ANY },
        Replay, [PURE => PURE];
}

/// A seeded divergence: `P` with an in-place receive hook that drops
/// every update, so it disagrees with `P`'s pure `on_receive`.
struct DropsInPlaceUpdates<P>(P);

impl<P: OneWayProgram> OneWayProgram for DropsInPlaceUpdates<P> {
    type State = P::State;
    fn on_receive(&self, s: &P::State, r: &P::State) -> P::State {
        self.0.on_receive(s, r)
    }
    fn on_receive_in_place(&self, _s: &P::State, _r: &mut P::State) -> bool {
        false
    }
}

/// The pure ≡ in-place relation catches the divergence in SID under IO
/// and shrinks it to a handful of agents, whose inputs the report prints.
#[test]
fn a_seeded_in_place_divergence_is_caught_and_shrunk() {
    let sid = &[Prog::Sid(Inner::Epidemic)];
    let space = Space {
        progs: sid,
        agents: 2..12,
        batch: 1..128,
        ..ANY
    };
    let failure = check("seeded_divergence", &(space,), |(s,)| {
        let case = Case::new(&s, Relation::Bitwise, PURE, BATCHED);
        let sims = Sid::<Epidemic>::initial(&case.bools());
        case.run(
            OneWayModel::Io,
            |_, _| DropsInPlaceUpdates(Sid::new(Epidemic)),
            &sims,
        )
    })
    .expect_err("the mutant's in-place hook diverges");
    let minimal = &failure.input.0;
    assert!(minimal.inputs.len() <= 4, "not shrunk: {minimal:?}");
    let report = proptest::format_failure("seeded_divergence", "s", &failure);
    let inputs = format!("inputs: {:?}", minimal.inputs);
    assert!(report.contains(&inputs), "{report}");
}

// The in-law rows.

type LawRunner<P, C> = TwoWayRunner<P, UniformScheduler, RateStrategy, StatsOnly, C>;

/// The interleaved reference of the law rows, and their fault-free
/// model with its omission rate.
const INTERLEAVED: Batched = Batched(64);
const FAULT_FREE: (TwoWayModel, f64) = (TwoWayModel::Tw, 0.0);

/// Runs `protocol` from `population` once per seed under `(model, rate)`,
/// a model with i.i.d. omissions at that rate, through `exec` until
/// `stop`; `read` reads each finished run.
fn law_runs<'p, P, C, E, T>(
    exec: E,
    (model, rate): (TwoWayModel, f64),
    (protocol, population): (&P, &C),
    seeds: Range<u64>,
    stop: impl Fn() -> Stop<'p, C>,
    read: impl Fn(&LawRunner<P, C>, RunOutcome) -> T,
) -> Vec<T>
where
    P: TwoWayProgram + Clone,
    C: ExecBackend<State = P::State> + Clone,
    E: Exec<LawRunner<P, C>, C> + Copy,
{
    let run = |seed| {
        let builder = TwoWayRunner::builder(model, protocol.clone()).seed(seed);
        let builder = builder.population(population.clone());
        let mut runner = builder.adversary(RateStrategy::new(rate)).build().unwrap();
        let out = runner.run(exec, stop()).unwrap();
        read(&runner, out)
    };
    seeds.map(run).collect()
}

/// Mean steps until `done` holds at two batch boundaries running; every
/// seed must get there within `budget`.
fn mean_steps<P, C, E>(
    exec: E,
    faults: (TwoWayModel, f64),
    start: (&P, &C),
    seeds: Range<u64>,
    budget: u64,
    done: impl Fn(&Multiset<P::State>) -> bool,
) -> f64
where
    P: TwoWayProgram + Clone,
    C: ExecBackend<State = P::State> + Clone,
    E: Exec<LawRunner<P, C>, C> + Copy,
{
    let until = || Stop::until(budget, stably(|c: &C| done(&c.counts()), 2));
    let steps = |_: &LawRunner<P, C>, out: RunOutcome| {
        assert!(out.is_satisfied(), "a seed missed the budget");
        out.steps() as f64
    };
    let steps = law_runs(exec, faults, start, seeds, until, steps);
    steps.iter().sum::<f64>() / steps.len() as f64
}

/// `reference / candidate` lies in `band`.
fn within(what: &str, reference: f64, candidate: f64, band: RangeInclusive<f64>) -> TestResult {
    let ratio = reference / candidate;
    let diverged = format!("{what}: mean steps {reference:.0} vs {candidate:.0}");
    prop_assert!(band.contains(&ratio), "{diverged}");
    Ok(())
}

fn all_infected(m: &Multiset<bool>) -> bool {
    m.count(&true) == m.len()
}

proptest! {
    /// Dense ≈ count on the epidemic: both backends deal the uniform
    /// pair law but consume the RNG differently.
    #[test]
    fn dense_law_eq_count_epidemic(n in 30usize..80, seed_base in 0u64..1_000) {
        let table = TableProtocol::from_protocol(&Epidemic);
        let groups = [(true, 1), (false, n - 1)];
        let dense = (&table, &Configuration::from_groups(groups));
        let counts = (&table, &CountConfiguration::from_groups(groups));
        let seeds = seed_base..seed_base + 16;
        let a = mean_steps(INTERLEAVED, FAULT_FREE, dense, seeds.clone(), 500_000, all_infected);
        let b = mean_steps(INTERLEAVED, FAULT_FREE, counts, seeds, 500_000, all_infected);
        within(&format!("epidemic, n = {n}"), a, b, 0.5..=2.0)?;
    }

    /// Dense ≈ count on approximate majority (non-monotone; steps to
    /// either consensus, since an unlucky seed may flip) and leader
    /// election (quadratic meeting times).
    #[test]
    fn dense_law_eq_count_ported_protocols(seed_base in 0u64..1_000) {
        let seeds = seed_base..seed_base + 12;
        let groups = [(MajorityState::X, 32), (MajorityState::Y, 16)];
        let dense = (&ApproximateMajority, &Configuration::from_groups(groups));
        let counts = (&ApproximateMajority, &CountConfiguration::from_groups(groups));
        let consensus = |m: &Multiset<MajorityState>| {
            m.count(&MajorityState::X) == m.len() || m.count(&MajorityState::Y) == m.len()
        };
        let a = mean_steps(INTERLEAVED, FAULT_FREE, dense, seeds.clone(), 2_000_000, consensus);
        let b = mean_steps(INTERLEAVED, FAULT_FREE, counts, seeds.clone(), 2_000_000, consensus);
        within("approximate majority", a, b, 0.4..=2.5)?;

        let leader = |m: &Multiset<LeaderState>| m.count(&LeaderState::Leader) == 1;
        let dense = (&LeaderElection, &LeaderElection::initial(32));
        let counts = (&LeaderElection, &LeaderElection::initial_counts(32));
        let a = mean_steps(INTERLEAVED, FAULT_FREE, dense, seeds.clone(), 2_000_000, leader);
        let b = mean_steps(INTERLEAVED, FAULT_FREE, counts, seeds, 2_000_000, leader);
        within("leader election", a, b, 0.4..=2.5)?;
    }

    /// Interleaved ≈ `Epochs` on the fault-free epidemic.
    #[test]
    fn interleaved_law_eq_epochs_epidemic(n in 100usize..240, seed_base in 0u64..1_000) {
        let start = (&Epidemic, &CountConfiguration::from_groups([(true, 1), (false, n - 1)]));
        let seeds = seed_base..seed_base + 12;
        let a = mean_steps(INTERLEAVED, FAULT_FREE, start, seeds.clone(), 500_000, all_infected);
        let b = mean_steps(Epochs, FAULT_FREE, start, seeds, 500_000, all_infected);
        within(&format!("epidemic, n = {n}"), a, b, 0.5..=2.0)?;
    }

    /// Interleaved ≈ `Epochs` on exact majority and remainder mod 3.
    #[test]
    fn interleaved_law_eq_epochs_ported_protocols(seed_base in 0u64..1_000) {
        let seeds = seed_base..seed_base + 10;
        // Exact majority, 2:1 at n = 600: X wins, so a run lasts until no
        // Y opinion is left. E[ℓ] ≈ 15 and 4/9 of the first pairs can
        // change, so it starts on the epoch branch and ends on event steps.
        let majority = CountConfiguration::from_groups([(ms::SX, 400), (ms::SY, 200)]);
        let start = (&ExactMajority, &majority);
        let no_y = |m: &Multiset<ExactMajorityState>| m.count(&ms::SY) + m.count(&ms::WY) == 0;
        let a = mean_steps(INTERLEAVED, FAULT_FREE, start, seeds.clone(), 2_000_000, no_y);
        let b = mean_steps(Epochs, FAULT_FREE, start, seeds.clone(), 2_000_000, no_y);
        within("exact majority", a, b, 0.4..=2.5)?;

        // Remainder mod 3 on 100 unit inputs (100 ≡ 1): done once one
        // active agent is left and every agent votes `true`. Every pair
        // can change at first, so E[ℓ] ≈ 6.3 starts on the epoch branch.
        let (remainder, inputs) = (Remainder::new(3, 1), [1u32; 100]);
        assert!(remainder.expected(&inputs));
        let decided = |m: &Multiset<RemainderState>| {
            let actives: usize = m.iter().filter(|(q, _)| q.value.is_some()).map(|(_, c)| c).sum();
            actives == 1 && m.iter().all(|(q, _)| q.opinion)
        };
        let start = (&remainder, &remainder.initial_counts(&inputs));
        let a = mean_steps(INTERLEAVED, FAULT_FREE, start, seeds.clone(), 2_000_000, decided);
        let b = mean_steps(Epochs, FAULT_FREE, start, seeds, 2_000_000, decided);
        within("remainder", a, b, 0.4..=2.5)?;
    }

    /// Interleaved ≈ `Epochs` under T1 omissions at a fixed i.i.d. rate,
    /// drawn per interaction on one path and thinned binomially per bulk
    /// group on the other.
    #[test]
    fn interleaved_law_eq_epochs_omissive_epidemic(rate_pct in 5u32..35, seed_base in 0u64..1_000) {
        let start = (&Epidemic, &CountConfiguration::from_groups([(true, 1), (false, 149)]));
        let t1 = (TwoWayModel::T1, f64::from(rate_pct) / 100.0);
        let seeds = seed_base..seed_base + 12;
        let a = mean_steps(INTERLEAVED, t1, start, seeds.clone(), 500_000, all_infected);
        let b = mean_steps(Epochs, t1, start, seeds, 500_000, all_infected);
        within(&format!("omissive epidemic, rate {}", t1.1), a, b, 0.5..=2.0)?;
    }
}

/// Interleaved ≈ `Epochs` at a fixed budget `m` under T1 omissions at
/// rate 0.1: the mean infected count and the mean omission fraction
/// agree within 4 standard errors. Budget truncation is exact on the
/// epoch path, so there is no stop-granularity offset, and the seed
/// window resolves a bias of a few percent, which no ratio band can.
fn assert_paths_agree_at_budget(n: usize, infected: usize, seeds: Range<u64>, m: u64) {
    fn mean_and_se(xs: &[f64]) -> (f64, f64) {
        let k = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / k;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (k - 1.0);
        (mean, (var / k).sqrt())
    }
    let counts = CountConfiguration::from_groups([(true, infected), (false, n - infected)]);
    let (start, t1, budget) = ((&Epidemic, &counts), (TwoWayModel::T1, 0.1), || {
        Stop::steps(m)
    });
    let read = |r: &LawRunner<Epidemic, CountConfiguration<bool>>, _| {
        assert_eq!(r.stats().steps, m);
        let infected = r.config().count_state(&true) as f64;
        (infected, r.stats().omission_fraction())
    };
    let a = law_runs(INTERLEAVED, t1, start, seeds.clone(), budget, read);
    let b = law_runs(Epochs, t1, start, seeds, budget, read);
    let ((a0, a1), (b0, b1)): ((Vec<_>, Vec<_>), (Vec<_>, Vec<_>)) =
        (a.into_iter().unzip(), b.into_iter().unzip());
    for (what, a, b) in [("infected count", a0, b0), ("omission fraction", a1, b1)] {
        let ((a, sa), (b, sb)) = (mean_and_se(&a), mean_and_se(&b));
        let se = sa.hypot(sb);
        let diverged = format!("{what} at n = {n}, budget {m}: {a:.4} vs {b:.4} (SE {se:.4})");
        assert!((a - b).abs() < 4.0 * se, "{diverged}");
    }
}

/// From 10% infected at n = 1000, m = 1200 ends near the epidemic's
/// midpoint, where the infected count is most sensitive to the rate;
/// 2000 seeds.
#[test]
fn interleaved_law_eq_epochs_at_a_fixed_budget() {
    assert_paths_agree_at_budget(1000, 100, 0..2000, 1200);
}

/// Across the event/epoch switch: at n = 10⁵ (E[ℓ] ≈ 198) the driver
/// takes event steps while fewer than ≈ 1.5% of the agents are infected
/// or susceptible, and epochs in between. From 1% infected, m = 5·10⁵
/// carries the epidemic into the epoch branch and back out, ending with
/// ≈ 740 susceptible agents. 30 seeds resolve a ≈ 5% bias in that count
/// (a 10% error in the event steps' skip rate moves it ≈ 12%).
#[test]
fn interleaved_law_eq_epochs_across_the_event_switch() {
    assert_paths_agree_at_budget(100_000, 1_000, 0..30, 500_000);
}
