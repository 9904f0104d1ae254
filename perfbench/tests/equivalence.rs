//! On small instances of every workload shape, the end-to-end run is the
//! run `RunSpec` makes, the traced run does exactly the same work, and its
//! spans account for the sample.

use pop_proto::TopologyFamily;
use sim_stats::rng::SimRng;
use usd_core::{Backend, InitialConfigBuilder, RunSpec, UsdConfig};
use usd_perfbench::checks::{check_fingerprint, check_sample};
use usd_perfbench::micro::SamplerTimings;
use usd_perfbench::report::{end_to_end, per_layer, Metric};
use usd_perfbench::sample::{run_e2e, run_traced, Fingerprint};
use usd_perfbench::trace::Recorder;
use usd_perfbench::workload::{sample_seeds, Instance, Placement, Stop};

/// Large enough that the chunked drive loop's step, max(4n, 2^16), is 4n.
const N: u64 = 192 * 192;

fn small_instances() -> Vec<Instance> {
    let silence = Stop::Silence { budget: 1 << 40 };
    vec![
        Instance {
            config: InitialConfigBuilder::new(20_000, 27).max_admissible_bias(),
            backend: Backend::Batch,
            topology: None,
            placement: Placement::Clique,
            stop: Stop::Silence {
                budget: usd_experiments::fig1::default_budget(20_000, 27),
            },
        },
        Instance {
            config: InitialConfigBuilder::new(N, 2).figure1(),
            backend: Backend::BatchGraph,
            topology: Some(TopologyFamily::Regular { d: 8 }),
            placement: Placement::Shuffled,
            stop: silence,
        },
        Instance {
            config: InitialConfigBuilder::new(N, 2).figure1(),
            backend: Backend::BatchGraph,
            topology: Some(TopologyFamily::Torus),
            placement: Placement::Shuffled,
            stop: Stop::Horizon {
                interactions: 100 * N,
            },
        },
        Instance {
            config: UsdConfig::decided(vec![N - 64, 64]),
            backend: Backend::BatchGraph,
            topology: Some(TopologyFamily::Torus),
            placement: Placement::Patch { side: 8 },
            stop: silence,
        },
    ]
}

fn names(metrics: &[Metric]) -> Vec<&'static str> {
    metrics.iter().map(|m| m.name).collect()
}

#[test]
fn traced_runs_do_the_end_to_end_work_and_account_for_it() {
    sim_stats::threads::set_thread_override(Some(1));
    for inst in small_instances() {
        for (i, seeds) in sample_seeds(3, 3).into_iter().enumerate() {
            let e2e = run_e2e(&inst, seeds, 2);
            assert_eq!(e2e.setup_s.len(), 2);
            assert_eq!(check_sample(&inst, &e2e.outcome), Ok(()), "{inst:?}");
            let mut rec = Recorder::new();
            let traced = run_traced(&inst, seeds, i as u32, 1, &mut rec);
            assert_eq!(
                check_fingerprint(
                    &Fingerprint::of(&e2e.telemetry),
                    &Fingerprint::of(&traced.telemetry)
                ),
                Ok(()),
                "{inst:?}"
            );
            assert_eq!(traced.outcome, e2e.outcome);
            // Child spans nest inside their parents; the remainders are
            // what the benchmark reports as unattributed.
            assert!(traced.setup_unattributed_s() >= 0.0);
            assert!(traced.drive_unattributed_s() >= 0.0);
            let calls: u64 = traced.class_calls.iter().sum();
            assert!(calls >= 1);
            // setup, drive, one span per call, and the set-up children:
            // simulator.new, plus topology.build and simulator.placement
            // on a graph.
            let setup_children = if inst.topology.is_some() { 3 } else { 1 };
            assert_eq!(rec.len() as u64, 2 + calls + setup_children);
        }
    }
}

#[test]
fn end_to_end_runs_are_the_runs_runspec_makes() {
    sim_stats::threads::set_thread_override(Some(1));
    for inst in small_instances() {
        if matches!(inst.placement, Placement::Patch { .. }) {
            continue; // explicit states cannot go through a RunSpec build
        }
        for seeds in sample_seeds(5, 2) {
            let e2e = run_e2e(&inst, seeds, 1);
            let mut spec = RunSpec::new(&inst.config)
                .backend(inst.backend)
                .budget(inst.stop.budget());
            if let Some(family) = inst.topology {
                spec = spec.topology(family).topo_seed(seeds.topo);
            }
            let (result, sim) = spec.run_keeping(&mut SimRng::new(seeds.run));
            let sim = sim.expect("an engine");
            assert_eq!(result, e2e.outcome.result, "{inst:?}");
            assert_eq!(
                Fingerprint::of(sim.telemetry()),
                Fingerprint::of(&e2e.telemetry)
            );
        }
    }
}

/// The value of `"key": <number>` in `json`.
fn number_after(json: &str, key: &str) -> u64 {
    let at = json.find(&format!("\"{key}\"")).expect("key present") + key.len() + 2;
    let rest = json[at..].trim_start_matches([' ', ':']);
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().expect("a whole number")
}

#[test]
fn benchmark_json_declares_what_the_benchmark_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        number_after(&json, "run_seconds"),
        usd_perfbench::workload::RUN_SECONDS
    );
    let inst = small_instances().swap_remove(2);
    let seeds = sample_seeds(1, 1)[0];
    let e2e = run_e2e(&inst, seeds, 1);
    let traced = run_traced(&inst, seeds, 0, 1, &mut Recorder::new());
    let timings = SamplerTimings {
        block_us: 1.0,
        mvhg_us: 1.0,
        below_ns: 1.0,
    };
    let mut printed: Vec<&str> = usd_perfbench::workload::Workload::ALL
        .iter()
        .map(|w| w.name())
        .collect();
    printed.extend(names(&end_to_end(std::slice::from_ref(&e2e), 1.0)));
    printed.extend(names(&per_layer(&inst, &[traced], 1.0, timings)));
    let declared: Vec<&str> = json
        .split("\"name\": \"")
        .skip(1)
        .map(|s| &s[..s.find('"').expect("closing quote")])
        .collect();
    assert_eq!(declared, printed);
}
