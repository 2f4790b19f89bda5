//! Property tests for the network substrate: the shared medium never
//! overlaps transmissions, links preserve order, the AP delay process
//! stays within its configured envelope, and the receiver-report decoder
//! survives arbitrary bytes.

use proptest::prelude::*;

use powerburst_net::feedback::{REPORT_LEN, REPORT_LEN_BUFFERED};
use powerburst_net::{
    AirtimeModel, ApDelayParams, ApDelayProcess, Endpoint, IfaceId, Link, LinkSpec, Medium, NodeId,
    ReceiverReport, TxOutcome, WireOutcome,
};
use powerburst_sim::{derive_rng, SimDuration, SimTime};

proptest! {
    /// Frames on the medium are strictly serialized: each transmission's
    /// start (finish − airtime) is never before the previous finish.
    #[test]
    fn medium_serializes_all_frames(
        frames in prop::collection::vec((0u64..200_000, 40usize..1_500), 1..80),
    ) {
        let model = AirtimeModel { jitter_us: 25, ..AirtimeModel::DSSS_11MBPS };
        let mut med = Medium::new(model, SimDuration::from_secs(10));
        let mut rng = derive_rng(1, 1);
        let mut prev_finish = SimTime::ZERO;
        let mut t = SimTime::ZERO;
        for (gap, bytes) in frames {
            t += SimDuration::from_us(gap);
            match med.transmit(t, bytes, &mut rng) {
                TxOutcome::Sent { finish, airtime } => {
                    let start = finish - airtime;
                    prop_assert!(start >= prev_finish, "overlap: {start} < {prev_finish}");
                    prop_assert!(start >= t, "transmission before request");
                    prev_finish = finish;
                }
                TxOutcome::Dropped => {}
            }
        }
    }

    /// Airtime is affine in frame size and bounded by the jitter window.
    #[test]
    fn airtime_bounds(bytes in 0usize..3_000) {
        let m = AirtimeModel::DSSS_11MBPS;
        let base = m.airtime(bytes);
        let mut rng = derive_rng(2, 2);
        for _ in 0..20 {
            let j = m.airtime_jittered(bytes, &mut rng);
            prop_assert!(j >= base);
            prop_assert!(j <= base + SimDuration::from_us(m.jitter_us));
        }
    }

    /// Wired links deliver in order within a direction (serialization
    /// plus constant delay cannot reorder).
    #[test]
    fn links_preserve_order(
        sends in prop::collection::vec((0u64..50_000, 40usize..1_500), 1..60),
    ) {
        let mut l = Link::new(
            Endpoint { node: NodeId(0), iface: IfaceId(0) },
            Endpoint { node: NodeId(1), iface: IfaceId(0) },
            LinkSpec::FAST_ETHERNET,
        );
        let mut t = SimTime::ZERO;
        let mut prev = SimTime::ZERO;
        for (gap, bytes) in sends {
            t += SimDuration::from_us(gap);
            if let WireOutcome::Sent { arrive } = l.transmit(t, 0, bytes) {
                prop_assert!(arrive >= prev, "reordered: {arrive} < {prev}");
                prop_assert!(arrive > t);
                prev = arrive;
            }
        }
    }

    /// The AP delay process never leaves its configured envelope.
    #[test]
    fn ap_delay_stays_in_envelope(seed in 0u64..1_000, n in 1usize..500) {
        let params = ApDelayParams::default();
        let mut p = ApDelayProcess::new(params);
        let mut rng = derive_rng(seed, 3);
        let cap = params.base_us + params.walk_max_us + params.noise_us + params.spike_cap_us;
        for _ in 0..n {
            let d = p.sample(&mut rng).as_us() as f64;
            prop_assert!(d >= params.base_us - 1.0);
            prop_assert!(d <= cap + 1.0, "delay {d} above {cap}");
        }
    }

    /// Medium backlog is bounded by the cap plus one frame.
    #[test]
    fn medium_backlog_bounded(
        frames in prop::collection::vec(40usize..1_500, 1..200),
        cap_ms in 1u64..100,
    ) {
        let model = AirtimeModel { jitter_us: 0, ..AirtimeModel::DSSS_11MBPS };
        let cap = SimDuration::from_ms(cap_ms);
        let mut med = Medium::new(model, cap);
        let mut rng = derive_rng(4, 4);
        for bytes in frames {
            let _ = med.transmit(SimTime::ZERO, bytes, &mut rng);
            prop_assert!(
                med.backlog(SimTime::ZERO) <= cap + model.airtime(1_500),
                "backlog {} above cap {}",
                med.backlog(SimTime::ZERO),
                cap
            );
        }
    }

    /// Arbitrary bytes never panic the receiver-report decoder: it accepts
    /// exactly the 24- and 32-byte layouts, and an accepted report
    /// re-encodes to the same bytes.
    #[test]
    fn receiver_report_decodes_only_its_two_layouts(
        bytes in prop::collection::vec(any::<u8>(), 0..48),
    ) {
        let decoded = ReceiverReport::decode(&bytes);
        let exact = bytes.len() == REPORT_LEN || bytes.len() == REPORT_LEN_BUFFERED;
        prop_assert_eq!(decoded.is_some(), exact);
        if let Some(r) = decoded {
            prop_assert_eq!(r.buffer_bytes.is_some(), bytes.len() == REPORT_LEN_BUFFERED);
            prop_assert_eq!(&r.encode()[..], &bytes[..]);
        }
    }

    /// Both layouts round-trip, and truncating or padding either encoding
    /// to any other length is rejected.
    #[test]
    fn receiver_report_round_trips(
        flow in any::<u64>(),
        highest_seq in any::<u64>(),
        received in any::<u64>(),
        buffer in any::<u64>(),
        extended in any::<bool>(),
        len in 0usize..48,
    ) {
        let r = ReceiverReport { flow, highest_seq, received, buffer_bytes: extended.then_some(buffer) };
        let wire = r.encode();
        prop_assert_eq!(ReceiverReport::decode(&wire), Some(r));
        if len != REPORT_LEN && len != REPORT_LEN_BUFFERED {
            let mut resized = wire.to_vec();
            resized.resize(len, 0);
            prop_assert_eq!(ReceiverReport::decode(&resized), None);
        }
    }
}
