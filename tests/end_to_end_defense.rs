//! Integration: the cumulant defense across crates and channel conditions,
//! including the negative results for the naive strategies.

use hide_and_seek::channel::Link;
use hide_and_seek::core::attack::Emulator;
use hide_and_seek::core::defense::naive;
use hide_and_seek::core::defense::{ChannelAssumption, Detector};
use hide_and_seek::zigbee::{Receiver, Reception, Transmitter};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Setup {
    authentic: Vec<hide_and_seek::dsp::Complex>,
    forged: Vec<hide_and_seek::dsp::Complex>,
}

fn setup() -> Setup {
    let authentic = Transmitter::new().transmit_payload(b"00000").unwrap();
    let emulator = Emulator::new();
    let forged = emulator.received_at_zigbee(&emulator.emulate(&authentic));
    Setup { authentic, forged }
}

fn receptions(
    wave: &[hide_and_seek::dsp::Complex],
    link: &Link,
    n: usize,
    seed: u64,
) -> Vec<Reception> {
    let mut rng = StdRng::seed_from_u64(seed);
    let rx = Receiver::usrp();
    (0..n)
        .map(|_| rx.receive(&link.transmit(wave, &mut rng)))
        .collect()
}

#[test]
fn calibrated_detector_is_perfect_on_awgn() {
    // At 7 dB the per-frame DE² distributions are close enough that a
    // 20-frame calibration occasionally misplaces the midpoint (the paper
    // trains on 50 frames and its larger emulation distortion widens the
    // gap); from 9 dB up separation is total.
    let s = setup();
    for snr in [9.0, 12.0, 17.0] {
        let link = Link::awgn(snr);
        let zig_train = receptions(&s.authentic, &link, 20, 10);
        let emu_train = receptions(&s.forged, &link, 20, 11);
        let det = Detector::calibrate(ChannelAssumption::Ideal, &zig_train, &emu_train);
        for r in receptions(&s.authentic, &link, 20, 12) {
            assert!(
                !det.detect(&r).unwrap().is_attack,
                "false positive at {snr} dB"
            );
        }
        for r in receptions(&s.forged, &link, 20, 13) {
            assert!(det.detect(&r).unwrap().is_attack, "miss at {snr} dB");
        }
    }
}

#[test]
fn real_channel_detector_survives_phase_and_cfo() {
    let s = setup();
    let link = Link::real_indoor(3.0, 0.0);
    let zig_train = receptions(&s.authentic, &link, 20, 20);
    let emu_train = receptions(&s.forged, &link, 20, 21);
    let det = Detector::calibrate(ChannelAssumption::Real, &zig_train, &emu_train);
    let mut fp = 0;
    let mut miss = 0;
    for r in receptions(&s.authentic, &link, 30, 22) {
        fp += usize::from(det.detect(&r).unwrap().is_attack);
    }
    for r in receptions(&s.forged, &link, 30, 23) {
        miss += usize::from(!det.detect(&r).unwrap().is_attack);
    }
    assert_eq!(fp, 0, "{fp} false positives under fading");
    assert_eq!(miss, 0, "{miss} missed attacks under fading");
}

#[test]
fn ideal_detector_fails_under_rotation_but_real_does_not() {
    // The motivating asymmetry of Sec. VI-C.
    let s = setup();
    // The detector reads the raw chip samples, which keep the rotation
    // the receiver corrects before despreading.
    let rotated = hide_and_seek::channel::impairments::apply_phase(&s.authentic, 0.6);
    let r = Receiver::usrp().receive(&rotated);
    let ideal = Detector::new(ChannelAssumption::Ideal).with_threshold(0.25);
    let real = Detector::new(ChannelAssumption::Real).with_threshold(0.25);
    assert!(
        ideal.detect(&r).unwrap().is_attack,
        "Re(C40) should break under rotation"
    );
    assert!(
        !real.detect(&r).unwrap().is_attack,
        "|C40| should survive rotation"
    );
}

#[test]
fn defense_works_at_table_v_distances() {
    let s = setup();
    for d in [1.0, 3.0, 6.0] {
        let link = Link::real_indoor(d, 0.0);
        let det = Detector::new(ChannelAssumption::Real).with_threshold(0.1);
        for r in receptions(&s.authentic, &link, 10, 30) {
            let v = det.detect(&r).unwrap();
            assert!(!v.is_attack, "{d} m: authentic DE² {}", v.de_squared);
        }
        for r in receptions(&s.forged, &link, 10, 31) {
            let v = det.detect(&r).unwrap();
            assert!(v.is_attack, "{d} m: forged DE² {}", v.de_squared);
        }
    }
}

#[test]
fn naive_cp_strategy_collapses_without_block_alignment() {
    // The defender does not know where the attacker's 4 µs blocks start (the
    // ZigBee receiver has no WiFi symbol clock). Even a few samples of
    // misalignment destroy the CP statistic's margin — one of the reasons
    // "this methodology is not reliable" (Sec. VI-A1).
    let s = setup();
    let aligned = naive::cp_similarity_4mhz(&s.forged).unwrap();
    let zig_baseline = naive::cp_similarity_4mhz(&s.authentic).unwrap();
    assert!(
        aligned > zig_baseline,
        "sanity: aligned emulated must score higher"
    );
    let mut misaligned_max = f64::MIN;
    for off in [3usize, 5, 8, 11, 13] {
        let shifted = naive::cp_similarity_4mhz(&s.forged[off..]).unwrap();
        misaligned_max = misaligned_max.max(shifted);
    }
    assert!(
        misaligned_max < aligned - 0.1,
        "misalignment should erase most of the CP margin: aligned {aligned}, \
         misaligned max {misaligned_max}"
    );
}

#[test]
fn naive_chip_strategy_sees_no_symbol_difference() {
    let s = setup();
    let rx = Receiver::usrp();
    let n = s.authentic.len().min(s.forged.len());
    let ra = rx.receive(&s.authentic[..n]);
    let rb = rx.receive(&s.forged[..n]);
    let cmp = naive::compare_chip_streams(&ra, &rb);
    assert!(cmp.chip_groups_differing > 0.5);
    assert_eq!(cmp.symbols_differing, 0.0);
}

#[test]
fn defense_survives_walking_speed_doppler() {
    // "During the experiment, there are human activities such as walking"
    // (Sec. VII-D): ~8 Hz of Doppler at 2.4 GHz. The channel is essentially
    // static within one 0.4 ms frame, so the detector must be unaffected.
    use hide_and_seek::channel::fading::JakesFading;
    let s = setup();
    let det = Detector::new(ChannelAssumption::Real).with_threshold(0.1);
    let mut rng = StdRng::seed_from_u64(77);
    for trial in 0..10 {
        let fader = JakesFading::new(8.0, 4.0e6, 5.0, 12, &mut rng);
        // Sample the channel at a random point in its fading cycle by
        // offsetting the frame start.
        let offset = trial * 40_000;
        let faded_auth: Vec<hide_and_seek::dsp::Complex> = s
            .authentic
            .iter()
            .enumerate()
            .map(|(n, &v)| v * fader.gain_at(offset + n))
            .collect();
        let faded_forged: Vec<hide_and_seek::dsp::Complex> = s
            .forged
            .iter()
            .enumerate()
            .map(|(n, &v)| v * fader.gain_at(offset + n))
            .collect();
        let rx = Receiver::usrp();
        let va = det.detect(&rx.receive(&faded_auth)).unwrap();
        let vf = det.detect(&rx.receive(&faded_forged)).unwrap();
        assert!(
            !va.is_attack,
            "trial {trial}: authentic flagged, DE² {}",
            va.de_squared
        );
        assert!(
            vf.is_attack,
            "trial {trial}: forgery missed, DE² {}",
            vf.de_squared
        );
    }
}

#[test]
fn detector_error_on_empty_reception() {
    let det = Detector::default();
    let r = Receiver::usrp().receive(&[]);
    assert!(det.detect(&r).is_err());
}

#[test]
fn verdict_carries_features() {
    let s = setup();
    let r = Receiver::usrp().receive(&s.forged);
    let v = Detector::new(ChannelAssumption::Ideal).detect(&r).unwrap();
    assert!(v.features.sample_count > 100);
    assert!(v.de_squared > 0.0);
}
