//! Checkpoint bit-identity: run-to-T equals run-to-T/2 + snapshot +
//! restore + run-to-T, byte-for-byte, on every backend — final engine
//! snapshot (state, clocks, telemetry, histograms), counts, and the
//! `--timeline` flight-recorder JSONL. The split run round-trips through
//! the sealed [`RunCheckpoint`] container bytes, exactly what the CLI
//! persists to disk, and rebuilds a *fresh* simulator before restoring —
//! the same path an interrupted process takes on `--resume`. The torus
//! endgame case splits while the graph engines' sparse skipper is live,
//! so the restored run must continue from the skipper's pool exactly.

use pop_proto::checkpoint::{SnapshotReader, SnapshotWriter};
use pop_proto::topology::TopologyFamily;
use pop_proto::{BatchGraphSimulator, Simulator, TimelineRecorder};
use sim_stats::rng::SimRng;
use usd_core::backend::{make_simulator, make_topology_simulator, Backend};
use usd_core::config::UsdConfig;
use usd_core::protocol::UndecidedStateDynamics;
use usd_core::{RunCheckpoint, RunIdentity};

fn snapshot_bytes(sim: &dyn Simulator) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    sim.snapshot_state(&mut w);
    w.into_bytes()
}

/// Drive `sim` to the absolute interaction clock `target` in fixed chunks,
/// sampling the flight recorder at its cadence — the same loop shape as
/// the CLI drivers. Chunk boundaries are a pure function of the absolute
/// clock, which is what makes a resumed trajectory align with the
/// uninterrupted one.
fn drive(
    sim: &mut dyn Simulator,
    rng: &mut SimRng,
    rec: &mut TimelineRecorder,
    target: u64,
    chunk: u64,
) {
    while sim.interactions() < target && !sim.is_silent() {
        let done = sim.interactions();
        let step = chunk.min(target - done).min(rec.horizon(done)).max(1);
        if sim.run_until(rng, step, &mut |_| false) == 0 {
            break;
        }
        rec.record_if_due(sim);
    }
}

/// Everything a run observably produces; two runs are equivalent iff all
/// fields are equal (the snapshot bytes cover engine state, telemetry
/// counters, and histogram buckets; the JSONL is the `--timeline` output).
#[derive(PartialEq, Eq)]
struct RunOutput {
    snapshot: Vec<u8>,
    counts: Vec<u64>,
    interactions: u64,
    effective: u64,
    jsonl: String,
}

/// One run at `seed`: dead-heat USD (k = 2, no bias) so stabilization sits
/// far beyond the driving budget and the mid-run snapshot lands on a live
/// trajectory. `split_at = Some(mid)` interrupts at the `mid` chunk
/// boundary, packages a [`RunCheckpoint`], round-trips its sealed bytes,
/// rebuilds a fresh simulator from the "flags", restores, and continues.
fn run(
    backend: Backend,
    family: Option<TopologyFamily>,
    seed: u64,
    split_at: Option<u64>,
) -> RunOutput {
    // Dead heat at the complete-graph cap: USD resolves even unbiased
    // ties in Θ(n log n) interactions (~10⁵ here), so a 5·10⁴ driving
    // budget keeps the whole window — and the mid-run snapshot — on a
    // live trajectory for every backend.
    let n = 10_000u64;
    let config = UsdConfig::decided(vec![n / 2, n / 2]);
    let chunk = 4 * 1024u64;
    let total = chunk * 12;
    let make = |rng: &mut SimRng| -> Box<dyn Simulator> {
        match family {
            Some(f) => make_topology_simulator(backend, &config, f, seed ^ 0xA5A5, rng),
            None => make_simulator(backend, &config),
        }
    };
    let mut rng = SimRng::new(seed);
    let mut sim = make(&mut rng);
    sim.set_histograms(true);
    let mut rec = TimelineRecorder::with_default_cadence(n);

    if let Some(mid) = split_at {
        drive(sim.as_mut(), &mut rng, &mut rec, mid, chunk);
        assert!(
            !sim.is_silent(),
            "{}: trajectory went silent before the split — test lost its teeth",
            backend.name()
        );
        let identity = RunIdentity::new(
            backend.name(),
            n,
            2,
            seed,
            family.map(|f| f.name()).unwrap_or_default(),
        );
        let ckpt = RunCheckpoint {
            identity: identity.clone(),
            rng: rng.state(),
            recorder: Some(rec.clone()),
            engine: snapshot_bytes(sim.as_ref()),
        };
        let back = RunCheckpoint::from_bytes(&ckpt.to_bytes()).expect("sealed bytes round-trip");
        back.check_identity(&identity).expect("identity echo");
        // A fresh process: rebuild exactly as the original did (same RNG
        // draws in the constructor), then restore and reposition.
        let mut rng2 = SimRng::new(seed);
        let mut sim2 = make(&mut rng2);
        sim2.set_histograms(true);
        sim2.restore_state(&mut SnapshotReader::new(&back.engine))
            .expect("restore_state failed");
        rng = SimRng::from_state(back.rng).expect("non-degenerate RNG state");
        rec = back.recorder.expect("checkpoint carries the recorder");
        sim = sim2;
    }

    drive(sim.as_mut(), &mut rng, &mut rec, total, chunk);
    rec.finish(sim.as_ref());
    RunOutput {
        snapshot: snapshot_bytes(sim.as_ref()),
        counts: sim.counts().to_vec(),
        interactions: sim.interactions(),
        effective: sim.effective_interactions(),
        jsonl: rec.to_jsonl(),
    }
}

fn assert_equivalent(backend: Backend, family: Option<TopologyFamily>, seed: u64) {
    let reference = run(backend, family, seed, None);
    let resumed = run(backend, family, seed, Some(6 * 4 * 1024));
    let label = family.map_or_else(
        || backend.name().to_string(),
        |f| format!("{} on {}", backend.name(), f.name()),
    );
    assert_eq!(
        reference.interactions, resumed.interactions,
        "{label}: interaction clocks diverged"
    );
    assert_eq!(
        reference.effective, resumed.effective,
        "{label}: effective clocks diverged"
    );
    assert_eq!(reference.counts, resumed.counts, "{label}: counts diverged");
    assert_eq!(
        reference.jsonl, resumed.jsonl,
        "{label}: timeline JSONL diverged"
    );
    assert!(
        reference.snapshot == resumed.snapshot,
        "{label}: final engine snapshots are not byte-identical"
    );
    assert!(
        !reference.jsonl.is_empty(),
        "{label}: timeline never sampled — cadence misconfigured"
    );
}

#[test]
fn clique_resume_is_bit_identical_on_every_backend() {
    for backend in Backend::ALL {
        assert_equivalent(backend, None, 0xC0FFEE ^ backend as u64);
    }
}

#[test]
fn topology_resume_is_bit_identical_on_the_graph_backends() {
    for backend in [Backend::Agent, Backend::Graph, Backend::BatchGraph] {
        for family in [TopologyFamily::Cycle, TopologyFamily::Regular { d: 8 }] {
            assert_equivalent(backend, Some(family), 0xBEEF ^ backend as u64);
        }
    }
}

/// One torus-endgame run to silence: an 8 × 8 opinion-1 patch on a
/// 64 × 64 torus of opinion 0, so activity collapses to the patch
/// perimeter and the engine hands off to its sparse skipper early. The
/// run is driven to successive multiples of a fixed chunk, so chunk
/// boundaries are a pure function of the absolute clock. With `split`,
/// the run is interrupted at the first boundary where the skipper is live
/// and has drawn at least 64 events — its pool has churned, and the pool
/// order is trajectory state — then checkpointed through the sealed
/// container, restored into a freshly built engine, and driven on to
/// silence.
fn endgame_run(backend: Backend, seed: u64, split: bool) -> RunOutput {
    let side = 64usize;
    let n = side * side;
    let patch = 8usize;
    let graph = TopologyFamily::Torus.build(n, 0);
    let mut states = vec![0usize; n];
    for r in 0..patch {
        for c in 0..patch {
            states[r * side + c] = 1;
        }
    }
    let make = || -> Box<dyn Simulator> {
        let proto = UndecidedStateDynamics::new(2);
        let states = states.clone();
        let sim = BatchGraphSimulator::new(proto, &graph, states);
        let mut sim: Box<dyn Simulator> = match backend {
            Backend::Graph => Box::new(sim.per_event()),
            Backend::BatchGraph => Box::new(sim),
            other => panic!("{other} has no sparse skipper"),
        };
        sim.set_histograms(true);
        sim
    };
    let mut rng = SimRng::new(seed);
    let mut sim = make();
    let mut rec = TimelineRecorder::with_default_cadence(n as u64);
    let chunk = 1024u64;
    let mut split_pending = split;
    while !sim.is_silent() {
        let next = (sim.interactions() / chunk + 1) * chunk;
        drive(sim.as_mut(), &mut rng, &mut rec, next, chunk);
        let t = *sim.telemetry();
        let live = t.sparse_enters > t.sparse_exits && t.sparse.events >= 64;
        if !(split_pending && live) || sim.is_silent() {
            continue;
        }
        split_pending = false;
        let ckpt = RunCheckpoint {
            identity: RunIdentity::new(backend.name(), n as u64, 2, seed, "torus"),
            rng: rng.state(),
            recorder: Some(rec.clone()),
            engine: snapshot_bytes(sim.as_ref()),
        };
        let back = RunCheckpoint::from_bytes(&ckpt.to_bytes()).expect("sealed bytes round-trip");
        let mut fresh = make();
        fresh
            .restore_state(&mut SnapshotReader::new(&back.engine))
            .expect("restore_state failed");
        rng = SimRng::from_state(back.rng).expect("non-degenerate RNG state");
        rec = back.recorder.expect("checkpoint carries the recorder");
        sim = fresh;
    }
    assert!(
        !split_pending,
        "{}: no live skipper before silence — test lost its teeth",
        backend.name()
    );
    rec.finish(sim.as_ref());
    RunOutput {
        snapshot: snapshot_bytes(sim.as_ref()),
        counts: sim.counts().to_vec(),
        interactions: sim.interactions(),
        effective: sim.effective_interactions(),
        jsonl: rec.to_jsonl(),
    }
}

#[test]
fn endgame_resume_with_a_live_skipper_is_bit_identical() {
    for backend in [Backend::Graph, Backend::BatchGraph] {
        let seed = 0xE9D ^ backend as u64;
        let reference = endgame_run(backend, seed, false);
        let resumed = endgame_run(backend, seed, true);
        let label = backend.name();
        assert_eq!(
            reference.interactions, resumed.interactions,
            "{label}: interaction clocks diverged"
        );
        assert_eq!(
            reference.effective, resumed.effective,
            "{label}: effective clocks diverged"
        );
        assert_eq!(reference.counts, resumed.counts, "{label}: counts diverged");
        assert_eq!(
            reference.jsonl, resumed.jsonl,
            "{label}: timeline JSONL diverged"
        );
        assert!(
            reference.snapshot == resumed.snapshot,
            "{label}: final engine snapshots are not byte-identical"
        );
    }
}

#[test]
fn restored_state_continues_from_the_exact_interaction_clock() {
    // Sanity on the weakest observable: restoring alone (no further
    // driving) reproduces the snapshot point exactly.
    let config = UsdConfig::decided(vec![300, 212]);
    for backend in Backend::ALL {
        let mut sim = make_simulator(backend, &config);
        let mut rng = SimRng::new(7);
        sim.run_until(&mut rng, 2_000, &mut |_| false);
        let bytes = snapshot_bytes(sim.as_ref());
        let mut fresh = make_simulator(backend, &config);
        fresh
            .restore_state(&mut SnapshotReader::new(&bytes))
            .expect("restore");
        assert_eq!(fresh.interactions(), sim.interactions(), "{backend:?}");
        assert_eq!(fresh.counts(), sim.counts(), "{backend:?}");
        assert_eq!(snapshot_bytes(fresh.as_ref()), bytes, "{backend:?}");
    }
}
