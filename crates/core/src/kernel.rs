//! The location DES kernel (§II-B step 3).
//!
//! "Each location constructs a sequential and local DES by converting each
//! visit message into an arrive event and depart event. The DES is
//! executed, computing the interactions between each pair of susceptible
//! and infectious people who are at the location at the same time."
//!
//! People only interact within the same *sublocation* (§III-C), so the
//! kernel runs per sublocation. What the paper's DES computes is, for
//! every (susceptible, infectious) pair, the minutes they are present
//! together; visit times are integer minutes, so the kernel computes that
//! co-presence exactly, as the overlap of the two visits' intervals, with
//! no events at all. A susceptible's exposure `Σ_j τ_ij · ln(1 − r·s_i·ι_j)`
//! groups by infectivity class, because infectivity values are drawn from
//! the finite PTTS state set: one integer τ per class, summed over the
//! infectious visits the susceptible overlaps.

use crate::messages::{InfectMsg, VisitMsg};
use ptts::crng::{CounterRng, Purpose};
use ptts::transmission::select_infector;
use ptts::Ptts;

/// Reusable working memory of the kernel. One instance per owner
/// (LocationManager chare or the sequential oracle's run) serves
/// every sublocation and every day: all buffers grow to the high-water
/// mark once and are then recycled, so the steady-state kernel performs no
/// heap allocation.
#[derive(Debug, Default)]
pub struct KernelScratch {
    /// The group's infectious visits, in canonical order.
    infectious: Vec<Infectious>,
    /// The group's susceptible visits as departure keys,
    /// `end_min << 32 | canonical index`.
    susceptible: Vec<u64>,
    /// Co-presence minutes of the susceptible being resolved, per
    /// infectivity class.
    tau: Vec<u32>,
    /// Infector-attribution candidates `(visit index, p_j)`.
    cands: Vec<(u32, f64)>,
    /// Candidate probabilities, parallel to `cands`.
    probs: Vec<f64>,
    /// Memo of `(-q_c).ln_1p()` per class for the last `(r_eff, s_i)`
    /// pair; susceptibility is monomorphic in practice, so the transcend
    /// calls amortise to one rebuild per kernel invocation.
    lnq: Vec<f64>,
    /// The `(r_eff, s_i)` key the `lnq` memo was built for.
    lnq_key: (f64, f64),
}

impl KernelScratch {
    /// Fresh scratch; buffers are grown lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// One infectious visit of the group being resolved.
#[derive(Debug, Clone, Copy)]
struct Infectious {
    start: u16,
    end: u16,
    class: u16,
    /// The visit's index in the group's canonical order.
    index: u32,
}

/// Features the dynamic load model consumes (Figure 3b), accumulated per
/// location per day.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LocationDayFeatures {
    /// Arrive + depart events of the paper's DES (2 × visits).
    pub events: u64,
    /// Total susceptible×infectious interaction pairs.
    pub interactions: u64,
    /// Σ 1/interactions over occupants with ≥ 1 interaction.
    pub sum_reciprocal_interactions: f64,
}

/// Map PTTS states to dense infectivity classes.
#[derive(Debug, Clone)]
pub struct InfectivityClasses {
    /// Class index per state (`u8::MAX` = not infectious).
    class_of_state: Vec<u8>,
    /// Infectivity per class.
    iota: Vec<f64>,
}

impl InfectivityClasses {
    /// Build from a PTTS.
    pub fn new(ptts: &Ptts) -> Self {
        let mut class_of_state = vec![u8::MAX; ptts.n_states()];
        let mut iota = Vec::new();
        for (s, slot) in class_of_state.iter_mut().enumerate() {
            let inf = ptts.infectivity(ptts::model::StateId(s as u16));
            if inf > 0.0 {
                let class = iota
                    .iter()
                    .position(|&x: &f64| (x - inf).abs() < 1e-12)
                    .unwrap_or_else(|| {
                        iota.push(inf);
                        iota.len() - 1
                    });
                *slot = class as u8;
            }
        }
        InfectivityClasses {
            class_of_state,
            iota,
        }
    }

    /// Number of classes.
    pub fn n(&self) -> usize {
        self.iota.len()
    }

    #[inline]
    pub(crate) fn class(&self, state: ptts::model::StateId) -> Option<usize> {
        let c = self.class_of_state[state.0 as usize];
        (c != u8::MAX).then_some(c as usize)
    }
}

/// Run one location's DES for one day over a flat visit slice.
///
/// `visits` is the day's buffer (any order — it is sorted internally, so
/// results are independent of message arrival order). Returns the infect
/// messages and the load-model features. `r_eff` is the effective
/// per-minute transmissibility. `scratch` supplies all working memory; a
/// reused instance makes the kernel allocation-free in steady state.
#[allow(clippy::too_many_arguments)]
#[simlint_macros::hot_path]
pub fn simulate_location_day(
    visits: &mut [VisitMsg],
    ptts: &Ptts,
    classes: &InfectivityClasses,
    r_eff: f64,
    seed: u64,
    day: u32,
    scratch: &mut KernelScratch,
    out: &mut Vec<InfectMsg>,
) -> LocationDayFeatures {
    let mut features = LocationDayFeatures {
        events: 2 * visits.len() as u64,
        ..Default::default()
    };
    // Fast path: with no infectious visitor there are no interactions and
    // no infections — `features` already holds its final value. One O(n)
    // scan replaces the sort, and over a whole epidemic most location-days
    // take this exit.
    if !visits.iter().any(|v| classes.class(v.state).is_some()) {
        return features;
    }
    // Deterministic order: by sublocation, then start, then person — one
    // u64 key (16+16+32 bits) so the sort compares single integers.
    visits.sort_unstable_by_key(visit_key);
    for group in visits.chunk_by(|a, b| a.sublocation == b.sublocation) {
        overlap_sublocation(
            group,
            ptts,
            classes,
            r_eff,
            seed,
            day,
            scratch,
            out,
            &mut features,
        );
    }
    features
}

#[inline]
pub(crate) fn visit_key(v: &VisitMsg) -> u64 {
    canonical_key(v.sublocation, v.start_min, v.person)
}

/// The canonical order of a location's visits, as one sort key: by
/// sublocation, then start, then person.
#[inline]
pub(crate) fn canonical_key(sublocation: u16, start_min: u16, person: u32) -> u64 {
    ((sublocation as u64) << 48) | ((start_min as u64) << 32) | person as u64
}

/// The interval-overlap kernel: resolve every susceptible of one
/// sublocation group, whose `visits` are in canonical order.
///
/// Two passes. The first lists the infectious visits and the susceptible
/// ones (a zero-length visit is neither: it meets no one). The second
/// resolves the susceptibles in departure order, `(end, canonical index)`,
/// the order the paper's DES reaches their depart events in: each scans
/// the infectious list once, adding the overlap `min(eᵢ, eⱼ) − max(sᵢ, sⱼ)`
/// of every infectious visit `j ≠ i` it overlaps to `τ[class j]`.
///
/// O(S·I) for S susceptible and I infectious visits. A group is a room,
/// which `LocationKind::room_capacity` sizes for 8–40 daily visitors, and
/// I is mostly 1–3, so each susceptible costs a few integer comparisons
/// and one kernel serves every group, with no switch on its size.
#[allow(clippy::too_many_arguments)]
#[simlint_macros::hot_path]
pub(crate) fn overlap_sublocation(
    visits: &[VisitMsg],
    ptts: &Ptts,
    classes: &InfectivityClasses,
    r_eff: f64,
    seed: u64,
    day: u32,
    scratch: &mut KernelScratch,
    out: &mut Vec<InfectMsg>,
    features: &mut LocationDayFeatures,
) {
    let KernelScratch {
        infectious,
        susceptible,
        tau,
        cands,
        probs,
        lnq,
        lnq_key,
    } = scratch;
    infectious.clear();
    susceptible.clear();
    for (i, v) in visits.iter().enumerate() {
        if v.end_min <= v.start_min {
            continue;
        }
        if let Some(class) = classes.class(v.state) {
            // simlint: allow(R6) -- reused scratch: the infectious list reaches the largest group's count once, then recycles
            infectious.push(Infectious {
                start: v.start_min,
                end: v.end_min,
                class: class as u16,
                index: i as u32,
            });
        }
        if v.sus_scale > 0.0 && ptts.is_susceptible(v.state) {
            susceptible.push(((v.end_min as u64) << 32) | i as u64); // simlint: allow(R6) -- reused scratch: the susceptible list reaches the largest group's count once, then recycles
        }
    }
    if infectious.is_empty() || susceptible.is_empty() {
        return;
    }
    susceptible.sort_unstable();
    tau.clear();
    tau.resize(classes.n(), 0); // simlint: allow(R6) -- reused scratch: per-class minutes, classes.n() is fixed for a run
    for &key in susceptible.iter() {
        let i = key as u32;
        let v = &visits[i as usize];
        tau.fill(0);
        let mut encounters = 0u64;
        for w in infectious.iter() {
            let overlap = v.end_min.min(w.end) as i32 - v.start_min.max(w.start) as i32;
            if overlap > 0 && w.index != i {
                tau[w.class as usize] += overlap as u32;
                encounters += 1;
            }
        }
        if encounters == 0 {
            continue;
        }
        features.interactions += encounters;
        features.sum_reciprocal_interactions += 1.0 / encounters as f64;
        resolve_susceptible(
            v, tau, infectious, visits, ptts, classes, r_eff, seed, day, cands, probs, lnq,
            lnq_key, out,
        );
    }
}

/// Draw one susceptible's infection from its per-class co-presence
/// minutes `tau`, and if infected, attribute an infector among the
/// group's `infectious` visits. `cands`/`probs` are reused scratch.
#[allow(clippy::too_many_arguments)]
#[simlint_macros::hot_path]
fn resolve_susceptible(
    v: &VisitMsg,
    tau: &[u32],
    infectious: &[Infectious],
    visits: &[VisitMsg],
    ptts: &Ptts,
    classes: &InfectivityClasses,
    r_eff: f64,
    seed: u64,
    day: u32,
    cands: &mut Vec<(u32, f64)>,
    probs: &mut Vec<f64>,
    lnq: &mut Vec<f64>,
    lnq_key: &mut (f64, f64),
    out: &mut Vec<InfectMsg>,
) {
    let s_i = ptts.susceptibility(v.state) * v.sus_scale as f64;
    // Exposure: log-escape per class. The `(-q).ln_1p()` factors depend
    // only on `(r_eff, s_i, class)`; susceptibility is monomorphic in
    // practice, so the memo reduces the transcendental calls to one
    // rebuild per kernel invocation. `lnq[c]` is exactly the value the
    // un-memoised expression produces, so results are bit-identical.
    if lnq.len() != classes.n() || *lnq_key != (r_eff, s_i) {
        lnq.clear();
        // simlint: allow(R6) -- reused scratch: memoised log-q table, rebuilt only when (r_eff, s_i) changes
        lnq.extend(classes.iota.iter().map(|&iota| {
            let q = (r_eff * s_i * iota).clamp(0.0, 1.0 - 1e-12);
            if q > 0.0 {
                (-q).ln_1p()
            } else {
                0.0
            }
        }));
        *lnq_key = (r_eff, s_i);
    }
    let mut log_escape = 0.0f64;
    for (&minutes, &lnq_c) in tau.iter().zip(lnq.iter()) {
        // Adding `τ * 0.0` for a zero-q class leaves the sum unchanged,
        // matching the original `if q > 0.0` guard exactly.
        if minutes > 0 {
            log_escape += minutes as f64 * lnq_c;
        }
    }
    if log_escape == 0.0 {
        // exp(0) = 1 exactly, so p would be 0 — skip the exp.
        return;
    }
    let p = 1.0 - log_escape.exp();
    if p <= 0.0 {
        return;
    }
    let mut rng = CounterRng::from_key(&[
        seed,
        v.person as u64,
        day as u64,
        Purpose::Infection as u64,
        v.start_min as u64,
    ]);
    if !rng.bernoulli(p) {
        return;
    }
    // Attribute an infector: a pairwise pass over the overlapping
    // infectious visits, in canonical order.
    cands.clear();
    for w in infectious {
        let u = &visits[w.index as usize];
        if u.person == v.person && u.start_min == v.start_min {
            continue;
        }
        let overlap = (v.end_min.min(w.end) as i32 - v.start_min.max(w.start) as i32).max(0) as f64;
        if overlap > 0.0 {
            let q = (r_eff * s_i * classes.iota[w.class as usize]).clamp(0.0, 1.0 - 1e-12);
            let p_j = 1.0 - (overlap * (-q).ln_1p()).exp();
            cands.push((w.index, p_j)); // simlint: allow(R6) -- reused scratch: candidate list reaches the worst overlap count once, then recycles
        }
    }
    let infector = if cands.is_empty() {
        u32::MAX
    } else {
        probs.clear();
        probs.extend(cands.iter().map(|&(_, p)| p)); // simlint: allow(R6) -- reused scratch: probability buffer mirrors cands, capacity reused
        match select_infector(probs, rng.uniform_f64()) {
            Some(i) => visits[cands[i].0 as usize].person,
            None => u32::MAX,
        }
    };
    // simlint: allow(R6) -- reused scratch: output queue drained by the caller each step, capacity reused
    out.push(InfectMsg {
        person: v.person,
        time_min: v.start_min,
        infector,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use ptts::flu_model;
    use ptts::model::{DwellDist, PttsBuilder, StateId, TreatmentId};

    /// The paper's per-location DES as the kernel ran it before the
    /// interval-overlap kernel: arrive/depart events in `(time, arrive
    /// after depart, index)` order, one cumulative occupancy integral per
    /// infectivity class, a snapshot of the integrals at each susceptible
    /// arrival, and the resolve at its departure. Kept as the reference
    /// the kernel must equal bit for bit.
    mod event_sweep {
        use super::*;

        /// Sweep one sublocation group (visits in canonical order).
        #[allow(clippy::too_many_arguments)]
        pub(super) fn sweep(
            visits: &[VisitMsg],
            ptts: &Ptts,
            classes: &InfectivityClasses,
            r_eff: f64,
            seed: u64,
            day: u32,
            out: &mut Vec<InfectMsg>,
            features: &mut LocationDayFeatures,
        ) {
            // Events: `key = t << 1 | is_arrive`, so at equal times
            // departs sort before arrives; ties by visit index.
            let mut events: Vec<(u32, u32)> = Vec::new();
            let mut total_inf_arrivals = 0u64;
            for (i, v) in visits.iter().enumerate() {
                if v.end_min <= v.start_min {
                    continue;
                }
                if classes.class(v.state).is_some() {
                    total_inf_arrivals += 1;
                }
                events.push((((v.start_min as u32) << 1) | 1, i as u32));
                events.push(((v.end_min as u32) << 1, i as u32));
            }
            events.sort_unstable();

            let ncls = classes.n();
            let mut cit = vec![0.0f64; ncls];
            let mut present = vec![0u32; ncls];
            // Per visit: the integrals at arrival, the infectious present
            // then, and the infectious arrivals seen before it.
            let mut snap: Vec<Option<(Vec<f64>, u32, u64)>> = vec![None; visits.len()];
            let mut arrivals = 0u64;
            let mut last_t = 0u16;
            for (key, vi) in events {
                let t = (key >> 1) as u16;
                let dt = (t - last_t) as f64;
                if dt > 0.0 {
                    for (citc, &pres) in cit.iter_mut().zip(present.iter()) {
                        *citc += pres as f64 * dt;
                    }
                    last_t = t;
                }
                let v = &visits[vi as usize];
                let v_class = classes.class(v.state);
                if key & 1 == 1 {
                    if ptts.is_susceptible(v.state)
                        && v.sus_scale > 0.0
                        && !(arrivals == total_inf_arrivals && present.iter().all(|&p| p == 0))
                    {
                        snap[vi as usize] = Some((cit.clone(), present.iter().sum(), arrivals));
                    }
                    if let Some(c) = v_class {
                        present[c] += 1;
                        arrivals += 1;
                    }
                } else {
                    if let Some(c) = v_class {
                        present[c] -= 1;
                    }
                    let Some((at_arrive, present_at_arrive, arrivals_at_arrive)) =
                        snap[vi as usize].take()
                    else {
                        continue;
                    };
                    let mut encounters = present_at_arrive as u64 + (arrivals - arrivals_at_arrive);
                    if v_class.is_some() {
                        encounters = encounters.saturating_sub(1);
                    }
                    features.interactions += encounters;
                    if encounters > 0 {
                        features.sum_reciprocal_interactions += 1.0 / encounters as f64;
                    }
                    let s_i = ptts.susceptibility(v.state) * v.sus_scale as f64;
                    let mut log_escape = 0.0f64;
                    #[allow(clippy::needless_range_loop)] // c indexes three parallel arrays
                    for c in 0..ncls {
                        let mut tau = cit[c] - at_arrive[c];
                        if Some(c) == v_class {
                            tau -= (v.end_min - v.start_min) as f64;
                        }
                        if tau <= 0.0 {
                            continue;
                        }
                        let q = (r_eff * s_i * classes.iota[c]).clamp(0.0, 1.0 - 1e-12);
                        log_escape += tau * if q > 0.0 { (-q).ln_1p() } else { 0.0 };
                    }
                    if log_escape == 0.0 {
                        continue;
                    }
                    let p = 1.0 - log_escape.exp();
                    if p <= 0.0 {
                        continue;
                    }
                    let mut rng = CounterRng::from_key(&[
                        seed,
                        v.person as u64,
                        day as u64,
                        Purpose::Infection as u64,
                        v.start_min as u64,
                    ]);
                    if !rng.bernoulli(p) {
                        continue;
                    }
                    let mut cands = Vec::new();
                    for (j, w) in visits.iter().enumerate() {
                        if w.person == v.person && w.start_min == v.start_min {
                            continue;
                        }
                        let Some(c) = classes.class(w.state) else {
                            continue;
                        };
                        let overlap = (v.end_min.min(w.end_min) as i32
                            - v.start_min.max(w.start_min) as i32)
                            .max(0) as f64;
                        if overlap > 0.0 {
                            let q = (r_eff * s_i * classes.iota[c]).clamp(0.0, 1.0 - 1e-12);
                            cands.push((j, 1.0 - (overlap * (-q).ln_1p()).exp()));
                        }
                    }
                    let probs: Vec<f64> = cands.iter().map(|&(_, p)| p).collect();
                    let infector = match select_infector(&probs, rng.uniform_f64()) {
                        Some(i) if !cands.is_empty() => visits[cands[i].0].person,
                        _ => u32::MAX,
                    };
                    out.push(InfectMsg {
                        person: v.person,
                        time_min: v.start_min,
                        infector,
                    });
                }
            }
        }
    }

    /// All three infectivity classes, and a `carrier` state that is both
    /// susceptible and infectious, so the self-exclusion term is live.
    fn carrier_model() -> Ptts {
        PttsBuilder::new("carrier")
            .state("susceptible", 0.0, 1.0, DwellDist::Forever)
            .state("latent", 0.0, 0.0, DwellDist::Fixed(1))
            .state("carrier", 0.25, 0.5, DwellDist::Forever)
            .state("symptomatic", 1.0, 0.0, DwellDist::Forever)
            .state("asymptomatic", 0.5, 0.0, DwellDist::Forever)
            .state("recovered", 0.0, 0.0, DwellDist::Forever)
            .transition("latent", TreatmentId::DEFAULT, &[("carrier", 1.0)])
            .start("susceptible")
            .exposed("latent")
            .build()
            .expect("the carrier model validates")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The interval-overlap kernel equals the event sweep bit for bit:
        /// the same infect messages in the same order, the same interaction
        /// count, and the same `Σ 1/interactions` bits. Minutes fall on a
        /// 30-minute grid, so one visit's departure often meets another's
        /// arrival (zero overlap, no interaction); a zero duration makes a
        /// visit that counts nowhere; `sus_scale` 0 shuts a susceptible out;
        /// and a person may visit the room twice.
        #[test]
        fn overlap_kernel_equals_the_event_sweep(
            raw in collection::vec((0u32..10, 0u16..21, 0u16..9, 0usize..6, 0usize..3), 1..28),
            r_index in 0usize..3,
            seed in 0u64..1_000,
            day in 0u32..100,
        ) {
            let r_eff = [1e-4, 2e-3, 0.05][r_index];
            let ptts = carrier_model();
            let classes = InfectivityClasses::new(&ptts);
            assert_eq!(classes.n(), 3);
            let states = ["susceptible", "susceptible", "carrier", "symptomatic", "asymptomatic", "recovered"];
            let mut visits: Vec<VisitMsg> = raw
                .iter()
                .map(|&(person, start, length, state, scale)| {
                    let start_min = 30 * start;
                    VisitMsg {
                        person,
                        location: 0,
                        sublocation: 0,
                        start_min,
                        end_min: start_min + 30 * length,
                        state: ptts.state_by_name(states[state]).unwrap(),
                        sus_scale: [0.0, 0.5, 1.0][scale],
                    }
                })
                .collect();
            visits.sort_unstable_by_key(visit_key);

            let mut scratch = KernelScratch::new();
            let (mut out, mut got) = (Vec::new(), LocationDayFeatures::default());
            // Twice over one scratch: the second run starts from a used one.
            for _ in 0..2 {
                out.clear();
                got = LocationDayFeatures::default();
                overlap_sublocation(
                    &visits, &ptts, &classes, r_eff, seed, day, &mut scratch, &mut out, &mut got,
                );
            }
            let (mut want_out, mut want) = (Vec::new(), LocationDayFeatures::default());
            event_sweep::sweep(
                &visits, &ptts, &classes, r_eff, seed, day, &mut want_out, &mut want,
            );
            prop_assert_eq!(out, want_out);
            prop_assert_eq!(got.interactions, want.interactions);
            prop_assert_eq!(
                got.sum_reciprocal_interactions.to_bits(),
                want.sum_reciprocal_interactions.to_bits()
            );
        }
    }

    fn visit(person: u32, state: StateId, start: u16, end: u16, subloc: u16) -> VisitMsg {
        VisitMsg {
            person,
            location: 0,
            sublocation: subloc,
            start_min: start,
            end_min: end,
            state,
            sus_scale: 1.0,
        }
    }

    fn run(visits: &mut [VisitMsg], r: f64) -> (Vec<InfectMsg>, LocationDayFeatures) {
        let ptts = flu_model();
        let classes = InfectivityClasses::new(&ptts);
        let mut out = Vec::new();
        let mut scratch = KernelScratch::new();
        let f = simulate_location_day(visits, &ptts, &classes, r, 42, 0, &mut scratch, &mut out);
        (out, f)
    }

    fn sus(ptts: &Ptts) -> StateId {
        ptts.state_by_name("susceptible").unwrap()
    }
    fn sym(ptts: &Ptts) -> StateId {
        ptts.state_by_name("symptomatic").unwrap()
    }

    #[test]
    fn classes_built_from_flu() {
        let ptts = flu_model();
        let c = InfectivityClasses::new(&ptts);
        // incubating 0.25, symptomatic 1.0, asymptomatic 0.5.
        assert_eq!(c.n(), 3);
    }

    #[test]
    fn empty_location_no_events() {
        let (out, f) = run(&mut Vec::new(), 0.01);
        assert!(out.is_empty());
        assert_eq!(f.events, 0);
    }

    #[test]
    fn no_transmission_without_infectious() {
        let p = flu_model();
        let mut vs = vec![visit(1, sus(&p), 0, 100, 0), visit(2, sus(&p), 50, 150, 0)];
        let (out, f) = run(&mut vs, 1.0);
        assert!(out.is_empty());
        assert_eq!(f.events, 4);
        assert_eq!(f.interactions, 0);
    }

    #[test]
    fn certain_transmission_with_r_one() {
        let p = flu_model();
        let mut vs = vec![visit(1, sus(&p), 0, 600, 0), visit(2, sym(&p), 0, 600, 0)];
        let (out, f) = run(&mut vs, 1.0);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].person, 1);
        assert_eq!(out[0].infector, 2);
        assert_eq!(f.interactions, 1);
    }

    #[test]
    fn no_interaction_across_sublocations() {
        let p = flu_model();
        let mut vs = vec![
            visit(1, sus(&p), 0, 600, 0),
            visit(2, sym(&p), 0, 600, 1), // different room
        ];
        let (out, f) = run(&mut vs, 1.0);
        assert!(out.is_empty());
        assert_eq!(f.interactions, 0);
    }

    #[test]
    fn no_interaction_without_time_overlap() {
        let p = flu_model();
        let mut vs = vec![
            visit(1, sus(&p), 0, 100, 0),
            visit(2, sym(&p), 100, 400, 0), // back-to-back, zero overlap
        ];
        let (out, f) = run(&mut vs, 1.0);
        assert!(out.is_empty());
        assert_eq!(f.interactions, 0);
    }

    #[test]
    fn interaction_counts_are_pairwise_exact() {
        let p = flu_model();
        // Two infectious overlap one susceptible; one infectious arrives
        // during the stay, one is present beforehand.
        let mut vs = vec![
            visit(1, sus(&p), 100, 300, 0),
            visit(2, sym(&p), 0, 200, 0),   // present at arrival
            visit(3, sym(&p), 150, 400, 0), // arrives during stay
            visit(4, sym(&p), 350, 500, 0), // after departure — no overlap
        ];
        let (_, f) = run(&mut vs, 0.0001);
        assert_eq!(f.interactions, 2);
        assert!((f.sum_reciprocal_interactions - 0.5).abs() < 1e-12);
    }

    #[test]
    fn probability_matches_closed_form() {
        // Single pair, moderate r: empirical infection rate over many
        // persons ≈ 1 − (1−r·s·ι)^τ.
        let p = flu_model();
        let classes = InfectivityClasses::new(&p);
        let r = 0.002;
        let tau = 120u16;
        let n = 4000u32;
        let mut infected = 0;
        for person in 0..n {
            let mut vs = vec![
                visit(person, sus(&p), 0, tau, 0),
                visit(1_000_000, sym(&p), 0, tau, 0),
            ];
            let mut out = Vec::new();
            let mut scratch = KernelScratch::new();
            simulate_location_day(&mut vs, &p, &classes, r, 7, 3, &mut scratch, &mut out);
            infected += out.len();
        }
        let expected = 1.0 - (1.0f64 - r).powf(tau as f64);
        let got = infected as f64 / n as f64;
        assert!(
            (got - expected).abs() < 0.02,
            "empirical {got} vs closed form {expected}"
        );
    }

    #[test]
    fn exposure_independent_of_visit_order() {
        let p = flu_model();
        let mut a = vec![
            visit(1, sus(&p), 0, 300, 0),
            visit(2, sym(&p), 100, 200, 0),
            visit(3, sym(&p), 50, 250, 0),
        ];
        let mut b = a.clone();
        b.reverse();
        let (out_a, fa) = run(&mut a, 0.01);
        let (out_b, fb) = run(&mut b, 0.01);
        assert_eq!(out_a, out_b);
        assert_eq!(fa, fb);
    }

    #[test]
    fn vaccinated_scale_reduces_probability() {
        let p = flu_model();
        let classes = InfectivityClasses::new(&p);
        let count = |scale: f32| {
            let mut infected = 0;
            for person in 0..3000u32 {
                let mut vs = vec![
                    VisitMsg {
                        sus_scale: scale,
                        ..visit(person, sus(&p), 0, 200, 0)
                    },
                    visit(9_999_999, sym(&p), 0, 200, 0),
                ];
                let mut out = Vec::new();
                let mut scratch = KernelScratch::new();
                simulate_location_day(&mut vs, &p, &classes, 0.003, 11, 1, &mut scratch, &mut out);
                infected += out.len();
            }
            infected
        };
        let unvaxed = count(1.0);
        let vaxed = count(0.2);
        assert!(
            (vaxed as f64) < 0.55 * unvaxed as f64,
            "vaxed {vaxed} vs unvaxed {unvaxed}"
        );
        assert_eq!(count(0.0), 0, "perfect vaccine blocks everything");
    }

    #[test]
    fn multiple_infectious_raise_risk() {
        let p = flu_model();
        let classes = InfectivityClasses::new(&p);
        let count = |n_inf: u32| {
            let mut infected = 0;
            for person in 0..3000u32 {
                let mut vs = vec![visit(person, sus(&p), 0, 100, 0)];
                for j in 0..n_inf {
                    vs.push(visit(1_000_000 + j, sym(&p), 0, 100, 0));
                }
                let mut out = Vec::new();
                let mut scratch = KernelScratch::new();
                simulate_location_day(&mut vs, &p, &classes, 0.002, 13, 2, &mut scratch, &mut out);
                infected += out.len();
            }
            infected
        };
        let one = count(1);
        let four = count(4);
        assert!(four > one, "4 infectious {four} vs 1 infectious {one}");
    }

    #[test]
    fn infector_attribution_prefers_longer_overlap() {
        let p = flu_model();
        let classes = InfectivityClasses::new(&p);
        let mut by_infector = std::collections::BTreeMap::new();
        for person in 0..4000u32 {
            let mut vs = vec![
                visit(person, sus(&p), 0, 400, 0),
                visit(77, sym(&p), 0, 400, 0),   // full overlap
                visit(88, sym(&p), 380, 400, 0), // 20 minutes
            ];
            let mut out = Vec::new();
            let mut scratch = KernelScratch::new();
            simulate_location_day(&mut vs, &p, &classes, 0.01, 17, 5, &mut scratch, &mut out);
            for i in out {
                *by_infector.entry(i.infector).or_insert(0u32) += 1;
            }
        }
        let c77 = by_infector.get(&77).copied().unwrap_or(0);
        let c88 = by_infector.get(&88).copied().unwrap_or(0);
        assert!(c77 > 10 * c88.max(1), "77:{c77} 88:{c88}");
    }

    #[test]
    fn deterministic_given_seed() {
        let p = flu_model();
        let mk = || {
            vec![
                visit(1, sus(&p), 0, 300, 0),
                visit(2, sym(&p), 0, 300, 0),
                visit(3, sus(&p), 100, 250, 0),
                visit(4, sym(&p), 120, 260, 0),
            ]
        };
        let (a, _) = run(&mut mk(), 0.004);
        let (b, _) = run(&mut mk(), 0.004);
        assert_eq!(a, b);
    }
}
