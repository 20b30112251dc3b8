//! Integration: the extension subsystems working together — channel
//! listening, the dual-protocol frame, the adaptive attacker, the stream
//! monitor and interference.

use hide_and_seek::channel::interference::Interferer;
use hide_and_seek::channel::noise::complex_gaussian;
use hide_and_seek::channel::Link;
use hide_and_seek::core::attack::{
    clear_channel_assessment, Emulator, FullFrameAttack, LeastSquaresEmulator,
};
use hide_and_seek::core::defense::{ChannelAssumption, Detector, EnergyDetector, StreamMonitor};
use hide_and_seek::dsp::Complex;
use hide_and_seek::wifi::WifiReceiver;
use hide_and_seek::zigbee::{Receiver, Transmitter};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The complete kill chain of paper Sec. IV, started from a raw air
/// recording: listen → extract → CCA → emulate → transmit → control.
#[test]
fn kill_chain_from_raw_recording() {
    let mut rng = StdRng::seed_from_u64(1);
    // t1: victim transmits inside a noisy recording.
    let victim = Transmitter::new().transmit_payload(b"00000").unwrap();
    let sigma2 = 1e-2;
    let mut recording: Vec<Complex> = (0..700)
        .map(|_| complex_gaussian(&mut rng, sigma2))
        .collect();
    recording.extend(
        victim
            .iter()
            .map(|&v| v + complex_gaussian(&mut rng, sigma2)),
    );
    recording.extend((0..700).map(|_| complex_gaussian(&mut rng, sigma2)));

    // The attacker finds and extracts the frame.
    let detector = EnergyDetector::default();
    let captured = detector.extract_first(&recording).expect("frame present");

    // t2: channel idle check, then emulate and transmit.
    let idle: Vec<Complex> = (0..256)
        .map(|_| complex_gaussian(&mut rng, sigma2))
        .collect();
    assert!(clear_channel_assessment(&idle, 128, 0.2));
    let emulator = Emulator::new();
    let forged = emulator.received_at_zigbee(&emulator.emulate(captured));
    let r = Receiver::usrp().with_sync_search(96).receive(&forged);
    assert_eq!(r.payload(), Some(&b"00000"[..]));
}

#[test]
fn gateway_monitor_catches_full_frame_attack() {
    // The strongest attacker (dual-protocol frame) against the deployed
    // stream monitor.
    let mut rng = StdRng::seed_from_u64(2);
    let victim = Transmitter::new().transmit_payload(b"00000").unwrap();
    let attack = FullFrameAttack::new();
    let em = attack.emulate(&victim);
    // Unit receive power (any AGC does this); the attacker transmits at
    // whatever gain reaches the victim.
    let at_zigbee = hide_and_seek::dsp::metrics::normalize_power(&attack.received_at_zigbee(&em));

    let mut stream: Vec<Complex> = (0..500).map(|_| complex_gaussian(&mut rng, 1e-3)).collect();
    stream.extend_from_slice(&at_zigbee);
    stream.extend((0..500).map(|_| complex_gaussian(&mut rng, 1e-3)));

    let monitor = StreamMonitor::new(
        EnergyDetector::default(),
        Receiver::usrp().with_sync_search(200),
        Detector::new(ChannelAssumption::Ideal).with_threshold(0.25),
    );
    let events = monitor.scan(&stream);
    assert_eq!(events.len(), 1, "one burst expected");
    assert_eq!(events[0].payload.as_deref(), Some(&b"00000"[..]));
    assert!(
        events[0].accepted_forgery(),
        "the dual-protocol frame must still be flagged: DE² {:?}",
        events[0].verdict.map(|v| v.de_squared)
    );
}

#[test]
fn full_frame_decodes_on_both_radios_after_noise() {
    let victim = Transmitter::new().transmit_payload(b"00042").unwrap();
    let attack = FullFrameAttack::new();
    let em = attack.emulate(&victim);
    let mut rng = StdRng::seed_from_u64(3);

    // WiFi side with noise.
    let noisy_wifi =
        hide_and_seek::channel::noise::awgn_measured(&em.wifi_waveform, 25.0, &mut rng);
    let wifi_rx = WifiReceiver::new().receive(&noisy_wifi).unwrap();
    assert_eq!(wifi_rx.psdu, em.psdu);

    // ZigBee side with noise.
    let at_zigbee = attack.received_at_zigbee(&em);
    let link = Link::awgn(15.0);
    let r = Receiver::usrp()
        .with_sync_search(160)
        .receive(&link.transmit(&at_zigbee, &mut rng));
    assert_eq!(r.payload(), Some(&b"00042"[..]));
}

#[test]
fn adaptive_attacker_beats_naive_threshold_sometimes_but_not_calibration() {
    let victim = Transmitter::new().transmit_payload(b"00000").unwrap();
    let baseline = Emulator::new();
    let v1 = baseline.received_at_zigbee(&baseline.emulate(&victim));
    let ls = LeastSquaresEmulator::new();
    let v2 = ls.received_at_zigbee(&ls.emulate(&victim));

    let rx = Receiver::usrp();
    let link = Link::awgn(15.0);
    let mut rng = StdRng::seed_from_u64(4);
    let collect = |wave: &[Complex], rng: &mut StdRng| {
        (0..15)
            .map(|_| rx.receive(&link.transmit(wave, rng)))
            .collect::<Vec<_>>()
    };
    // Calibrate on BOTH attack variants (defender update after round 2).
    let mut attack_training = collect(&v1, &mut rng);
    attack_training.extend(collect(&v2, &mut rng));
    let det = Detector::calibrate(
        ChannelAssumption::Ideal,
        &collect(&victim, &mut rng),
        &attack_training,
    );
    let mut missed = 0;
    for r in collect(&v2, &mut rng) {
        missed += usize::from(!det.detect(&r).unwrap().is_attack);
    }
    assert_eq!(
        missed, 0,
        "re-calibrated defender must catch the LS attacker"
    );
    let mut fp = 0;
    for r in collect(&victim, &mut rng) {
        fp += usize::from(det.detect(&r).unwrap().is_attack);
    }
    assert_eq!(fp, 0, "re-calibration must not cost false positives");
}

#[test]
fn attack_and_defense_under_interference() {
    let victim = Transmitter::new().transmit_payload(b"00000").unwrap();
    let emulator = Emulator::new();
    let forged = emulator.received_at_zigbee(&emulator.emulate(&victim));
    let interferer = Interferer::zigbee_like(0.3, 0.05); // 13 dB SIR
    let link = Link::awgn(14.0);
    let det = Detector::new(ChannelAssumption::Ideal).with_threshold(0.25);
    let rx = Receiver::usrp();
    let mut rng = StdRng::seed_from_u64(5);
    let mut ok = 0;
    let mut caught = 0;
    const N: usize = 15;
    for _ in 0..N {
        let w = interferer.apply(&link.transmit(&forged, &mut rng), &mut rng);
        let r = rx.receive(&w);
        ok += usize::from(r.payload() == Some(&b"00000"[..]));
        caught += usize::from(det.detect(&r).map(|v| v.is_attack).unwrap_or(false));
    }
    assert!(
        ok >= 13,
        "attack should survive mild interference: {ok}/{N}"
    );
    assert!(
        caught >= 13,
        "defense should survive mild interference: {caught}/{N}"
    );
}
