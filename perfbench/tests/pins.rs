//! The workload parameters are pinned, and `BENCHMARK.json` names exactly
//! the workloads and metrics the benchmark prints.

use pop_proto::TopologyFamily;
use usd_core::{Backend, InitialConfigBuilder};
use usd_perfbench::workload::{sample_seeds, Placement, Stop, Workload, RUN_SECONDS};

#[test]
fn workload_parameters_are_pinned() {
    let clique = Workload::CliqueE6.instance();
    assert_eq!(
        clique.config,
        InitialConfigBuilder::new(1_000_000, 27).max_admissible_bias()
    );
    assert_eq!(clique.backend, Backend::Batch);
    assert_eq!(clique.topology, None);
    assert_eq!(clique.placement, Placement::Clique);
    assert_eq!(
        clique.stop,
        Stop::Silence {
            budget: usd_experiments::fig1::default_budget(1_000_000, 27)
        }
    );

    let reg8 = Workload::Reg8Dense.instance();
    assert_eq!(
        reg8.config,
        InitialConfigBuilder::new(1_000_000, 2).figure1()
    );
    assert_eq!(reg8.backend, Backend::BatchGraph);
    assert_eq!(reg8.topology, Some(TopologyFamily::Regular { d: 8 }));
    assert_eq!(reg8.placement, Placement::Shuffled);
    assert!(matches!(reg8.stop, Stop::Silence { budget } if budget >= 1 << 40));

    let coarsen = Workload::TorusCoarsen.instance();
    assert_eq!(
        coarsen.config,
        InitialConfigBuilder::new(1 << 20, 2).figure1()
    );
    assert_eq!(coarsen.backend, Backend::BatchGraph);
    assert_eq!(coarsen.topology, Some(TopologyFamily::Torus));
    assert_eq!(coarsen.placement, Placement::Shuffled);
    assert_eq!(
        coarsen.stop,
        Stop::Horizon {
            interactions: 100 << 20
        }
    );

    let endgame = Workload::TorusEndgame.instance();
    assert_eq!(
        endgame.config.opinions(),
        &[(1 << 20) - 128 * 128, 128 * 128]
    );
    assert_eq!(endgame.backend, Backend::BatchGraph);
    assert_eq!(endgame.topology, Some(TopologyFamily::Torus));
    assert_eq!(endgame.placement, Placement::Patch { side: 128 });
    assert!(matches!(endgame.stop, Stop::Silence { budget } if budget >= 1 << 40));

    let runs: Vec<(usize, usize)> = Workload::ALL
        .iter()
        .map(|w| (w.samples(RUN_SECONDS), w.setup_reps()))
        .collect();
    assert_eq!(runs, [(2, 255), (6, 1), (4, 3), (7, 3)]);
}

#[test]
fn sample_lists_are_a_pure_function_of_the_seed() {
    assert_eq!(sample_seeds(7, 5), sample_seeds(7, 5));
    assert_eq!(sample_seeds(7, 5)[..3], sample_seeds(7, 3)[..]);
    assert_ne!(sample_seeds(7, 3), sample_seeds(8, 3));
    for w in Workload::ALL {
        assert_eq!(Workload::from_name(w.name()), Some(w));
        assert_eq!(w.samples(1), 1, "{} runs at least one sample", w.name());
    }
}
