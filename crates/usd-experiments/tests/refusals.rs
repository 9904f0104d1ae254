//! Every flag combination the experiment binaries cannot run exits 2 with
//! a one-line message before any simulation starts.

use std::process::Command;

#[test]
fn unrunnable_flags_exit_2_before_any_run() {
    for (bin, args, why) in [
        // A 64-lane pass is not one run per sample.
        (
            env!("CARGO_BIN_EXE_thm35_scaling"),
            "--quick --backend replica",
            "`usd-sim run --backend replica` and topology_sweep",
        ),
        (
            env!("CARGO_BIN_EXE_k2_logn"),
            "--quick --backend replica",
            "`usd-sim run --backend replica` and topology_sweep",
        ),
        // More opinions than agents.
        (
            env!("CARGO_BIN_EXE_thm35_scaling"),
            "--quick --n 10 --k 20",
            "invalid instance n = 10, k = 20",
        ),
        (
            env!("CARGO_BIN_EXE_fig1_left"),
            "--quick --n 10 --k 20",
            "invalid instance n = 10, k = 20",
        ),
        (
            env!("CARGO_BIN_EXE_lemma31_undecided_bound"),
            "--quick --n 10 --k 20",
            "invalid instance n = 10, k = 20",
        ),
        (
            env!("CARGO_BIN_EXE_tightness_band"),
            "--quick --n 10 --k 20",
            "invalid instance n = 10, k = 20",
        ),
        // The Figure-1 bias √(n ln n) plus k opinions must fit n.
        (
            env!("CARGO_BIN_EXE_fig1_left"),
            "--quick --n 10 --k 8",
            "bias 5 leaves no room for 8 nonempty opinions at n = 10",
        ),
        (
            env!("CARGO_BIN_EXE_topology_sweep"),
            "--quick --k 250 --seeds 1",
            "bias 38 leaves no room for 250 nonempty opinions at n = 256",
        ),
        // The complete-graph cap.
        (
            env!("CARGO_BIN_EXE_bias_sensitivity"),
            "--n 20000 --backend graph",
            "exceeds the 10000 cap",
        ),
        // E14 checks every cell before the first runs.
        (
            env!("CARGO_BIN_EXE_topology_sweep"),
            "--quick --k 300 --seeds 1",
            "invalid instance n = 256, k = 300",
        ),
        (
            env!("CARGO_BIN_EXE_topology_sweep"),
            "--k 70000 --backend graph",
            "invalid instance",
        ),
        (
            env!("CARGO_BIN_EXE_topology_sweep"),
            "--backend batch",
            "batch cannot run graph topologies",
        ),
        // A repeated flag, and a flag the binary's report does not read.
        (
            env!("CARGO_BIN_EXE_fig1_left"),
            "--quick --n 3000 --n 2000",
            "--n given twice",
        ),
        (
            env!("CARGO_BIN_EXE_k2_logn"),
            "--quick --k 5",
            "unknown flag --k",
        ),
        (
            env!("CARGO_BIN_EXE_fig1_left"),
            "--quick --seeds 9",
            "unknown flag --seeds",
        ),
        (
            env!("CARGO_BIN_EXE_gossip_vs_pp"),
            "--quick --backend batch",
            "unknown flag --backend",
        ),
        (
            env!("CARGO_BIN_EXE_simulator_ablation"),
            "--quick --backend agent",
            "unknown flag --backend",
        ),
        (
            env!("CARGO_BIN_EXE_thm35_scaling"),
            "--quick --topology torus",
            "unknown flag --topology",
        ),
    ] {
        let out = Command::new(bin)
            .args(args.split_whitespace())
            .output()
            .expect("the binary starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {args}: {stderr}");
        assert!(out.stdout.is_empty(), "{bin} {args} ran before refusing");
        assert_eq!(stderr.lines().count(), 1, "{bin} {args}: {stderr}");
        assert!(stderr.contains(why), "{bin} {args}: {stderr}");
    }
}
