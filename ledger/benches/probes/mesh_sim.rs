//! `mesh-sim` below the event loop: medium construction and reception,
//! channel tick, queue discipline, pacer.

use super::{Bench, Inputs, Out};
use mesh_sim::medium::Transmission;
use mesh_sim::{AimdConfig, AimdPacer, ChannelSpec, Medium, SimConfig, Time, MS};
use mesh_topology::{NodeId, Topology};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;

/// Nanoseconds per frame of `begin` + `evaluate_reception_into`, averaged
/// over a lone frame and eight frames sharing the air.
fn reception_ns(b: &Bench, topo: &Topology) -> f64 {
    let cfg = SimConfig::default();
    let chan = ChannelSpec::Static.build(topo, 1);
    let mut medium = Medium::new(topo, &cfg, chan.as_ref());
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let (mut collisions, mut captures) = (0u64, 0u64);
    let mut receivers = Vec::new();
    let (mut now, mut id, mut node): (Time, u64, usize) = (0, 0, 0);
    let stride = topo.n() / 8;
    let mut frames = |overlapping: u64| {
        b.ns(|| {
            // Far enough apart that earlier rounds are pruned, not overlapped.
            now += 200 * MS;
            medium.prune(now);
            node = (node + 1) % stride;
            for j in 0..overlapping {
                medium.begin(Transmission {
                    id: id + j,
                    tx: NodeId(node + j as usize * stride),
                    start: now,
                    end: now + 2 * MS,
                });
            }
            for j in 0..overlapping {
                medium.evaluate_reception_into(
                    id + j,
                    chan.as_ref(),
                    &cfg,
                    &mut rng,
                    &mut collisions,
                    &mut captures,
                    &mut receivers,
                );
            }
            id += overlapping;
            black_box(&receivers);
        }) / overlapping as f64
    };
    (frames(1) + frames(8)) / 2.0
}

pub fn probe(b: &Bench, inputs: &Inputs, out: &mut Out) {
    let cfg = SimConfig::default();
    let chan = ChannelSpec::Static.build(&inputs.city10k, 1);
    let ns = b.ns(|| {
        drop(black_box(Medium::new(&inputs.city10k, &cfg, chan.as_ref())));
    });
    out.push(("mesh_sim.medium_new_10k_ms", ns / 1e6));
    out.push((
        "mesh_sim.reception_testbed_ns",
        reception_ns(b, &inputs.testbed),
    ));
    out.push((
        "mesh_sim.reception_10k_ns",
        reception_ns(b, &inputs.city10k),
    ));

    // The overload workload's channel; each call advances one 10 ms epoch.
    let mut ge = inputs.overload.channel.build(&inputs.testbed, 1);
    let mut now: Time = 0;
    let ns = b.ns(|| {
        now += 10 * MS;
        ge.tick(now);
    });
    out.push((
        "mesh_sim.ge_tick_ns_per_link",
        ns / inputs.testbed.link_count() as f64,
    ));

    // The workload's CHOKe(8) at about half its capacity: offer a frame of
    // one of three flows, serve the head whenever four are queued.
    let mut queue = inputs
        .overload
        .queue
        .build_node()
        .expect("the overload workload's queue is bounded");
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let mut i = 0u64;
    let ns = b.ns(|| {
        i += 1;
        let key = queue.classify(NodeId(0), Some((i % 3) as u32 + 1));
        black_box(queue.offer(key, i, &mut rng));
        if queue.depth() >= 4 {
            queue.dequeue(i);
        }
    });
    out.push(("mesh_sim.choke_offer_ns", ns));

    let mut pacer = AimdPacer::new(AimdConfig::default());
    let mut now: Time = 0;
    let ns = b.ns(|| {
        now += MS;
        if black_box(pacer.gate(now)).is_none() {
            pacer.on_send(now);
        }
    });
    out.push(("mesh_sim.aimd_gate_ns", ns));
}
