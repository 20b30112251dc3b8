//! A defending ZigBee gateway in deployment form: continuously monitor the
//! channel, find every frame-shaped burst, decode it, and classify it as
//! authentic or emulated — including the strongest (dual-protocol) attacker.
//!
//! ```text
//! cargo run --release --example gateway_monitor
//! ```

use hide_and_seek::channel::noise::complex_gaussian;
use hide_and_seek::core::attack::{Emulator, FullFrameAttack};
use hide_and_seek::core::defense::{ChannelAssumption, Detector, EnergyDetector, StreamMonitor};
use hide_and_seek::dsp::metrics::normalize_power;
use hide_and_seek::zigbee::{Receiver, Transmitter};
use hide_and_seek::Complex;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(99);
    let tx = Transmitter::new();

    // Build a day's worth of traffic (well, a few milliseconds of it):
    // authentic frames interleaved with two attacker generations.
    let authentic = tx.transmit_payload(b"00017")?;
    let baseline_attacker = Emulator::new();
    let forged_v1 = normalize_power(
        &baseline_attacker.received_at_zigbee(&baseline_attacker.emulate(&authentic)),
    );
    let fullframe_attacker = FullFrameAttack::new();
    let forged_v2 = normalize_power(
        &fullframe_attacker.received_at_zigbee(&fullframe_attacker.emulate(&authentic)),
    );

    let mut stream: Vec<Complex> = Vec::new();
    let mut truth = Vec::new();
    let noise = |n: usize, stream: &mut Vec<Complex>, rng: &mut StdRng| {
        stream.extend((0..n).map(|_| complex_gaussian(rng, 2e-3)));
    };
    for round in 0..3 {
        noise(700, &mut stream, &mut rng);
        stream.extend_from_slice(&authentic);
        truth.push("authentic");
        noise(700, &mut stream, &mut rng);
        stream.extend_from_slice(if round % 2 == 0 {
            &forged_v1
        } else {
            &forged_v2
        });
        truth.push(if round % 2 == 0 {
            "attack (baseline)"
        } else {
            "attack (dual-protocol)"
        });
    }
    noise(700, &mut stream, &mut rng);
    println!(
        "monitoring a {}-sample recording ({:.1} ms at 4 MHz) containing {} frames\n",
        stream.len(),
        stream.len() as f64 / 4000.0,
        truth.len()
    );

    let monitor = StreamMonitor::new(
        EnergyDetector::default(),
        Receiver::usrp().with_sync_search(200),
        Detector::new(ChannelAssumption::Ideal).with_threshold(0.25),
    );
    let events = monitor.scan(&stream);

    println!(
        "{:<10} {:>10} {:>12} {:>10}  verdict",
        "burst", "payload", "DE²", "truth"
    );
    let mut alarms = 0usize;
    for (event, truth) in events.iter().zip(&truth) {
        let verdict = event.verdict.expect("frames long enough for features");
        println!(
            "{:<10} {:>10} {:>12.4} {:>10}  {}",
            format!("@{}", event.burst.start),
            event
                .payload
                .as_deref()
                .map(|p| String::from_utf8_lossy(p).into_owned())
                .unwrap_or_else(|| "-".into()),
            verdict.de_squared,
            truth,
            if event.accepted_forgery() {
                alarms += 1;
                "!! ACCEPTED FORGERY — ALARM"
            } else if verdict.is_attack {
                "attack (rejected upstream)"
            } else {
                "authentic"
            }
        );
    }
    assert_eq!(events.len(), truth.len(), "every frame found");
    assert_eq!(alarms, 3, "all three forgeries flagged");
    println!(
        "\n{alarms} forged frames decoded by the stock stack and flagged by the \
         cumulant detector — the gateway knows exactly which commands to undo."
    );
    Ok(())
}
