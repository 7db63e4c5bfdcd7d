//! Loopback demo: two OS processes forward real EMPoWER frames over UDP
//! through the same datapath stages the simulator drives.
//!
//! ```text
//! terminal 1: cargo run -p empower-datapath --example udp_forward -- recv 127.0.0.1:0
//!             (prints `listening 127.0.0.1:<port>` with the bound port)
//! terminal 2: cargo run -p empower-datapath --example udp_forward -- send 127.0.0.1:<port>
//! ```
//!
//! Binding port 0 asks the OS for a free ephemeral port, so parallel CI
//! jobs never collide; the receiver's `listening` line advertises the
//! actual address for the sender to target. A fixed port still works —
//! pass it explicitly, or export `EMPOWER_UDP_PORT` for ci.sh.
//!
//! The sender's [`SourceEndpoint`] admits and routes each payload
//! (route choice), stamps a fixed per-route path price (0.25 on route 0,
//! 0.5 on route 1 — in the simulator this accumulates hop by hop) and
//! writes the header ahead of it (encap) into a [`UdpBackend`] datagram;
//! the receiver's [`DestEndpoint`] parses the header (decap), reorders,
//! and reports in-order delivery plus the per-route prices its paced ACK
//! would carry. Time is a synthetic clock (5 ms per frame): the demo
//! exercises the wire format and the stages, not wall-clock pacing. Delay equalization is skipped — it needs the
//! one-way delay, which plain UDP frames carry no timestamp for.

use std::io::Write;

use empower_datapath::backend::udp::UdpBackend;
use empower_datapath::{
    DestEndpoint, IfaceId, ReorderConfig, ReorderEvent, SchedulerConfig, SourceEndpoint,
    SourceRoute,
};

const FRAMES: u32 = 64;
const STEP_SECS: f64 = 0.005;

fn routes() -> Vec<SourceRoute> {
    vec![
        SourceRoute::new(&[IfaceId(1), IfaceId(2)]).unwrap(),
        SourceRoute::new(&[IfaceId(3), IfaceId(4)]).unwrap(),
    ]
}

fn send(peer: &str) {
    let io = UdpBackend::bind("127.0.0.1:0", peer).expect("bind sender socket");
    // 4 + 4 Mbps against ~29 kbit/s offered load: every offer is admitted.
    let cfg = SchedulerConfig::for_routes(2).initial_rates(&[4.0, 4.0]);
    let mut src = SourceEndpoint::new(io, &cfg, routes(), vec![0.25, 0.5], 42, None);
    let mut now = 0.0;
    for _ in 0..FRAMES {
        now += STEP_SECS;
        src.offer(now, b"empower-udp-demo").expect("send frame");
        // Keep loopback socket buffers comfortable.
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    assert_eq!(src.sent(), u64::from(FRAMES), "the token bucket admits every offer at this pace");
    println!("sent {} frames on 2 routes", src.sent());
}

fn recv(addr: &str) {
    let io = UdpBackend::bind(addr, "127.0.0.1:1").expect("bind receiver socket");
    // Report the address the OS actually assigned (addr may name port 0).
    let bound = io.local_addr().expect("query bound address");
    let mut dst = DestEndpoint::new(io, &ReorderConfig::for_routes(2), routes(), None);
    println!("listening {}", bound);
    std::io::stdout().flush().expect("flush stdout");
    let mut events: Vec<ReorderEvent> = Vec::new();
    let mut now = 0.0;
    // Each empty poll blocks ~5 ms in the socket timeout; bail out after
    // ~30 s without the full frame count.
    let mut idle_budget = 6000u32;
    while (events.len() as u32) < FRAMES && idle_budget > 0 {
        now += STEP_SECS;
        if !dst.poll(now, &mut events).expect("poll") {
            idle_budget -= 1;
        }
    }
    let delivered: Vec<u32> = events
        .iter()
        .filter_map(|e| match e {
            ReorderEvent::Deliver(s) => Some(*s),
            ReorderEvent::Lost(_) => None,
        })
        .collect();
    let in_order = delivered == (0..FRAMES).collect::<Vec<u32>>();
    println!(
        "delivered {} of {} frames, in order: {}",
        delivered.len(),
        FRAMES,
        if in_order { "yes" } else { "NO" }
    );
    if let Some(ack) = dst.maybe_ack(now + 1.0) {
        println!("ack: {} delivered, route prices {:?}", ack.delivered_packets, ack.route_prices);
    }
    if !in_order {
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(String::as_str) {
        Some("send") if args.len() == 3 => send(&args[2]),
        Some("recv") if args.len() == 3 => recv(&args[2]),
        _ => {
            eprintln!("usage: udp_forward send <peer-addr> | recv <bind-addr>");
            std::process::exit(2);
        }
    }
}
