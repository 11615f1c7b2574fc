//! Deterministic mass-registration workload generation.
//!
//! gNBSIM's back-to-back registrations (§V-A2) exercise module capacity
//! but not its queueing behaviour: every request waits for the previous
//! one. The pool experiments in `shield5g-scale` instead need an *open*
//! arrival process — UEs registering at a configured offered load,
//! independent of how fast the pool drains them. This module generates
//! such traces: Poisson arrivals (exponential inter-arrival times) over
//! a fixed subscriber population, reproducible from a [`DetRng`].
//!
//! There is one generator, the lazy [`poisson_arrivals`]: a driver holds
//! only the next arrival, never the trace, and an arrival names its
//! subscriber by population index (its SUPI is [`test_supi`] of it).

use shield5g_crypto::ident::{Plmn, Supi};
use shield5g_sim::rng::DetRng;
use shield5g_sim::time::{SimDuration, SimTime};

/// One UE authentication arrival.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Arrival {
    /// When the request reaches the pool frontend.
    pub at: SimTime,
    /// The subscriber issuing it, as an index into the population: its
    /// SUPI is `test_supi(ue)`.
    pub ue: u32,
}

/// Parameters of a mass-registration trace.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadSpec {
    /// Subscriber population size; arrivals draw uniformly from it, so a
    /// population smaller than `arrivals` yields repeat authentications
    /// per SUPI (re-registrations, periodic re-authentication).
    pub ues: u32,
    /// Total arrivals to generate.
    pub arrivals: u32,
    /// Offered load in authentications per second.
    pub rate_per_sec: f64,
}

/// The SUPI of test subscriber `i` (PLMN 001/01, matching
/// `shield5g_core::slice::Subscriber::test`).
#[must_use]
pub fn test_subscriber(i: u32) -> Supi {
    Supi::numbered(Plmn::test_network(), u64::from(i) + 1, 10)
}

/// [`test_subscriber`]'s SUPI as text.
#[must_use]
pub fn test_supi(i: u32) -> String {
    test_subscriber(i).to_string()
}

/// The Poisson arrival stream starting at `start`, drawn lazily: each
/// `next` takes two draws from `rng`, the gap and then the subscriber.
///
/// Inter-arrival gaps are drawn by inverse-CDF from the exponential
/// distribution with rate `spec.rate_per_sec`; arrival times are
/// non-decreasing and the whole stream is a pure function of the RNG
/// state.
///
/// # Panics
///
/// Panics, before any draw, when `spec.ues == 0` or
/// `spec.rate_per_sec` is not positive.
pub fn poisson_arrivals<'r>(
    rng: &'r mut DetRng,
    start: SimTime,
    spec: &WorkloadSpec,
) -> impl Iterator<Item = Arrival> + 'r {
    assert!(spec.ues > 0, "empty subscriber population");
    assert!(
        spec.rate_per_sec > 0.0,
        "offered load must be positive, got {}",
        spec.rate_per_sec
    );
    let spec = *spec;
    let mut at = start;
    (0..spec.arrivals).map(move |_| {
        // Uniform in (0, 1]: 53 mantissa bits, never exactly zero.
        let u = ((rng.next_u64() >> 11) + 1) as f64 * (1.0 / (1u64 << 53) as f64);
        let gap_ns = (-u.ln() / spec.rate_per_sec * 1e9).round() as u64;
        at += SimDuration::from_nanos(gap_ns);
        Arrival {
            at,
            ue: rng.range(0, u64::from(spec.ues)) as u32,
        }
    })
}

/// The whole [`poisson_arrivals`] stream, collected (same panics).
#[must_use]
pub fn poisson_registrations(
    rng: &mut DetRng,
    start: SimTime,
    spec: &WorkloadSpec,
) -> Vec<Arrival> {
    poisson_arrivals(rng, start, spec).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> WorkloadSpec {
        WorkloadSpec {
            ues: 16,
            arrivals: 2_000,
            rate_per_sec: 800.0,
        }
    }

    #[test]
    fn trace_is_deterministic() {
        let mut a = DetRng::new(11);
        let mut b = DetRng::new(11);
        let t0 = SimTime::from_nanos(5);
        assert_eq!(
            poisson_registrations(&mut a, t0, &spec()),
            poisson_registrations(&mut b, t0, &spec())
        );
    }

    #[test]
    fn arrivals_are_ordered_and_start_after_t0() {
        let mut rng = DetRng::new(12);
        let t0 = SimTime::from_nanos(1_000);
        let trace = poisson_registrations(&mut rng, t0, &spec());
        assert_eq!(trace.len(), 2_000);
        assert!(trace[0].at > t0);
        assert!(trace.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn mean_rate_close_to_offered() {
        let mut rng = DetRng::new(13);
        let trace = poisson_registrations(&mut rng, SimTime::from_nanos(0), &spec());
        let span = (trace[trace.len() - 1].at - trace[0].at).as_secs_f64();
        let rate = (trace.len() - 1) as f64 / span;
        assert!(
            (rate / 800.0 - 1.0).abs() < 0.1,
            "measured rate {rate:.0}/s vs offered 800/s"
        );
    }

    #[test]
    fn supis_stay_in_population() {
        let mut rng = DetRng::new(14);
        let trace = poisson_registrations(&mut rng, SimTime::from_nanos(0), &spec());
        assert!(trace.iter().all(|a| a.ue < 16));
        // A population smaller than the arrival count repeats subscribers.
        let distinct: std::collections::BTreeSet<u32> = trace.iter().map(|a| a.ue).collect();
        assert_eq!(distinct.len(), 16);
    }

    /// The pinned traces: 64 arrivals at the `pool_faulted` rate over a
    /// 1 000-subscriber population, starting at 1 µs.
    const PIN_SPEC: WorkloadSpec = WorkloadSpec {
        ues: 1_000,
        arrivals: 64,
        rate_per_sec: 2_800.0,
    };

    /// `(at ns, SUPI)` of every arrival of [`PIN_SPEC`] at seed 300.
    const PINNED_300: [(u64, &str); 64] = [
        (75139, "imsi-001010000000967"),
        (1259740, "imsi-001010000000438"),
        (1727298, "imsi-001010000000329"),
        (1737396, "imsi-001010000000956"),
        (2219351, "imsi-001010000000121"),
        (2538681, "imsi-001010000000105"),
        (2949718, "imsi-001010000000768"),
        (3156983, "imsi-001010000000812"),
        (3835787, "imsi-001010000000716"),
        (4387223, "imsi-001010000000648"),
        (4533355, "imsi-001010000000272"),
        (4739079, "imsi-001010000000032"),
        (4874504, "imsi-001010000000033"),
        (5094860, "imsi-001010000000111"),
        (5336433, "imsi-001010000000879"),
        (5464523, "imsi-001010000000643"),
        (5561970, "imsi-001010000000924"),
        (5697704, "imsi-001010000000225"),
        (6120337, "imsi-001010000000931"),
        (6197421, "imsi-001010000000218"),
        (6999274, "imsi-001010000000110"),
        (7162898, "imsi-001010000000693"),
        (7515409, "imsi-001010000000553"),
        (8173639, "imsi-001010000000801"),
        (8228654, "imsi-001010000000393"),
        (8243611, "imsi-001010000000869"),
        (8325857, "imsi-001010000000679"),
        (8461425, "imsi-001010000000684"),
        (8548003, "imsi-001010000000904"),
        (8755176, "imsi-001010000000908"),
        (9055641, "imsi-001010000000458"),
        (10055211, "imsi-001010000000026"),
        (10759680, "imsi-001010000000443"),
        (11665652, "imsi-001010000000611"),
        (13111574, "imsi-001010000000189"),
        (13638349, "imsi-001010000000117"),
        (14438074, "imsi-001010000000063"),
        (14532590, "imsi-001010000000240"),
        (14675207, "imsi-001010000000550"),
        (14785362, "imsi-001010000000394"),
        (15583114, "imsi-001010000000027"),
        (15642867, "imsi-001010000000327"),
        (15824628, "imsi-001010000000031"),
        (16265804, "imsi-001010000000562"),
        (16385047, "imsi-001010000000282"),
        (16759066, "imsi-001010000000075"),
        (17189393, "imsi-001010000000195"),
        (17883624, "imsi-001010000000481"),
        (18041046, "imsi-001010000000338"),
        (18106384, "imsi-001010000000801"),
        (18275434, "imsi-001010000000057"),
        (18683944, "imsi-001010000000710"),
        (18823071, "imsi-001010000000233"),
        (19097331, "imsi-001010000000338"),
        (19707715, "imsi-001010000000487"),
        (19996800, "imsi-001010000000396"),
        (20222282, "imsi-001010000000665"),
        (20853713, "imsi-001010000000014"),
        (21214545, "imsi-001010000000863"),
        (21279047, "imsi-001010000000349"),
        (23279503, "imsi-001010000000067"),
        (23346384, "imsi-001010000000809"),
        (23994827, "imsi-001010000000826"),
        (24457642, "imsi-001010000000438"),
    ];

    /// `(at ns, SUPI)` of every arrival of [`PIN_SPEC`] at seed 7.
    const PINNED_7: [(u64, &str); 64] = [
        (1034532, "imsi-001010000000173"),
        (1153059, "imsi-001010000000428"),
        (1166279, "imsi-001010000000466"),
        (1281669, "imsi-001010000000330"),
        (1288039, "imsi-001010000000074"),
        (2062840, "imsi-001010000000172"),
        (2173371, "imsi-001010000000114"),
        (2424776, "imsi-001010000000098"),
        (3073043, "imsi-001010000000185"),
        (3861551, "imsi-001010000000790"),
        (4001596, "imsi-001010000000417"),
        (4084629, "imsi-001010000000531"),
        (4145669, "imsi-001010000000006"),
        (6009224, "imsi-001010000000121"),
        (6350322, "imsi-001010000000286"),
        (6428627, "imsi-001010000000084"),
        (6670803, "imsi-001010000000834"),
        (7054981, "imsi-001010000000618"),
        (7545834, "imsi-001010000000588"),
        (7609183, "imsi-001010000000741"),
        (7618631, "imsi-001010000000618"),
        (8620407, "imsi-001010000000400"),
        (9315235, "imsi-001010000000582"),
        (9735078, "imsi-001010000000089"),
        (10168068, "imsi-001010000000848"),
        (11205736, "imsi-001010000000532"),
        (11747070, "imsi-001010000000945"),
        (11950267, "imsi-001010000000818"),
        (12561386, "imsi-001010000000289"),
        (12574394, "imsi-001010000000376"),
        (13205852, "imsi-001010000000719"),
        (14126877, "imsi-001010000000880"),
        (14271024, "imsi-001010000000294"),
        (14867134, "imsi-001010000000228"),
        (14968511, "imsi-001010000000049"),
        (15189310, "imsi-001010000000644"),
        (15303858, "imsi-001010000000854"),
        (15531283, "imsi-001010000000842"),
        (16087391, "imsi-001010000000993"),
        (16368160, "imsi-001010000000224"),
        (16417030, "imsi-001010000000469"),
        (16713435, "imsi-001010000000798"),
        (16967939, "imsi-001010000000431"),
        (17347739, "imsi-001010000000089"),
        (19384545, "imsi-001010000000970"),
        (19958998, "imsi-001010000000668"),
        (20846905, "imsi-001010000000567"),
        (20924327, "imsi-001010000000476"),
        (21667156, "imsi-001010000000897"),
        (21920626, "imsi-001010000000864"),
        (22158102, "imsi-001010000000379"),
        (22452766, "imsi-001010000000477"),
        (22773030, "imsi-001010000000371"),
        (23757319, "imsi-001010000000614"),
        (23898075, "imsi-001010000000828"),
        (24067095, "imsi-001010000000551"),
        (24252428, "imsi-001010000000261"),
        (24458379, "imsi-001010000000185"),
        (24672765, "imsi-001010000000922"),
        (24917772, "imsi-001010000000374"),
        (25290194, "imsi-001010000000095"),
        (25292386, "imsi-001010000000669"),
        (25341632, "imsi-001010000000270"),
        (25670009, "imsi-001010000000294"),
    ];

    #[test]
    fn the_arrival_stream_is_pinned() {
        for (seed, pinned) in [(300, &PINNED_300), (7, &PINNED_7)] {
            let mut rng = DetRng::new(seed);
            let trace = poisson_registrations(&mut rng, SimTime::from_nanos(1_000), &PIN_SPEC);
            let got: Vec<(u64, String)> = trace
                .iter()
                .map(|a| (a.at.as_nanos(), test_supi(a.ue)))
                .collect();
            let want: Vec<(u64, String)> =
                pinned.iter().map(|&(at, s)| (at, s.to_owned())).collect();
            assert_eq!(got, want, "seed {seed}");
        }
    }

    #[test]
    fn collecting_is_the_lazy_stream() {
        let t0 = SimTime::from_nanos(1_000);
        let mut collected = DetRng::new(300);
        let mut streamed = DetRng::new(300);
        assert_eq!(
            poisson_registrations(&mut collected, t0, &spec()),
            poisson_arrivals(&mut streamed, t0, &spec()).collect::<Vec<_>>()
        );
        // Both consumed the same draws: the next one agrees.
        assert_eq!(collected.next_u64(), streamed.next_u64());
    }

    #[test]
    fn supi_format_matches_slice_subscribers() {
        assert_eq!(test_supi(0), "imsi-001010000000001");
        assert_eq!(test_supi(41), "imsi-001010000000042");
    }
}
