//! Quickstart: one video client behind the power-aware proxy.
//!
//! Builds the paper's topology with a single mobile client streaming a
//! 56 kbps video, runs two simulated minutes, and reports how much WNIC
//! energy the burst schedule saved versus a naive always-on client.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use powerburst::prelude::*;

fn main() {
    let clients = vec![ClientSpec::new(ClientKind::Video { fidelity: Fidelity::K56 })];
    let cfg = ScenarioConfig::new(
        42,
        PolicyKind::DynamicFixed { interval: SimDuration::from_ms(100) },
        clients,
    )
    .with_duration(SimDuration::from_secs(119));

    println!("running: 1 client, 56 kbps stream, 100 ms burst interval, 119 s ...");
    let result = run_scenario(&cfg);
    let c = &result.clients[0];

    println!();
    println!("energy used   : {:8.1} J", c.post.energy_mj / 1_000.0);
    println!("naive client  : {:8.1} J", c.post.naive_mj / 1_000.0);
    println!("energy saved  : {:8.1} %", c.saved_pct());
    println!("packets lost  : {:8.2} %", c.loss_pct());
    println!(
        "slept         : {:8.1} s of {:.1} s ({} wake transitions)",
        c.post.sleep.as_secs_f64(),
        result.duration.as_secs_f64(),
        c.post.transitions
    );

    // How close is that to the theoretical optimum (§4.3)?
    let optimal = optimal_savings_for_rate(
        &CardSpec::WAVELAN_DSSS,
        Fidelity::K56.effective_bps(),
        result.duration,
        AirtimeModel::DSSS_11MBPS.effective_bps(728),
    );
    println!("optimal bound : {:8.1} %", optimal.saved * 100.0);
}
