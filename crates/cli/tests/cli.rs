//! End-to-end tests of the `fhp` binary: argument handling, file formats,
//! and every output mode, exercised through a real process.

use std::process::Command;

fn fhp() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fhp"))
}

fn run(args: &[&str]) -> (String, String, bool) {
    let out = fhp().args(args).output().expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

/// The value of the `[stats] key value` line for `key` in `stdout`.
fn stat(stdout: &str, key: &str) -> u64 {
    stdout
        .lines()
        .find_map(|l| l.strip_prefix(&format!("[stats] {key} ")))
        .unwrap_or_else(|| panic!("missing {key} in:\n{stdout}"))
        .trim()
        .parse()
        .expect("numeric stat")
}

#[test]
fn demo_partitions_with_cut_two() {
    let (stdout, _, ok) = run(&["--demo"]);
    assert!(ok);
    assert!(stdout.contains("cut size 2"), "{stdout}");
    assert!(stdout.contains("crossing signals"));
}

#[test]
fn quiet_prints_only_the_number() {
    let (stdout, _, ok) = run(&["--demo", "-q"]);
    assert!(ok);
    assert_eq!(stdout.trim(), "2");
}

#[test]
fn every_algorithm_runs_on_the_demo() {
    for alg in ["alg1", "kl", "fm", "sa", "random"] {
        let (stdout, stderr, ok) = run(&["--demo", "-a", alg, "-q"]);
        assert!(ok, "{alg}: {stderr}");
        let cut: usize = stdout.trim().parse().unwrap_or(usize::MAX);
        assert!(cut <= 9, "{alg} cut {cut}");
    }
}

#[test]
fn threads_flag_does_not_change_the_cut() {
    let baseline = run(&["--demo", "-q", "--seed", "7", "--threads", "1"]);
    assert!(baseline.2, "{}", baseline.1);
    for threads in ["2", "8", "0"] {
        let (stdout, stderr, ok) = run(&["--demo", "-q", "--seed", "7", "--threads", threads]);
        assert!(ok, "{stderr}");
        assert_eq!(stdout, baseline.0, "--threads {threads} changed the cut");
    }
    let (_, stderr, ok) = run(&["--demo", "--threads", "nope"]);
    assert!(!ok);
    assert!(stderr.contains("threads"), "{stderr}");
}

#[test]
fn stats_flag_prints_phase_lines() {
    let (stdout, stderr, ok) = run(&["--demo", "--stats"]);
    assert!(ok, "{stderr}");
    for key in [
        "dualize_kept_edges",
        "dualize_filtered_edges",
        "dualize_wall_us",
        "longest_path_bfs_wall_us",
        "dual_front_bfs_wall_us",
        "complete_cut_wall_us",
        "starts",
        "distinct_paths",
        "distinct_u",
        "engine_threads",
        "chosen_start",
        "num_g_vertices",
        "g_components",
        "path_component",
        "boundary_len",
        "arena_growths",
        "bfs_ids_read",
        "sweep_ids_read",
        "mem_live_bytes",
        "mem_peak_bytes",
        "mem_allocs",
    ] {
        assert!(
            stdout.contains(&format!("[stats] {key} ")),
            "missing {key} in:\n{stdout}"
        );
    }
    // Algorithm I reads G off the incidence lists: no pair counter is left
    let field = |key: &str| stat(&stdout, key);
    assert!(!stdout.contains("dualize_pairs_generated"), "{stdout}");
    assert_eq!(field("dualize_kept_edges"), 9);
    // every start that swept drew a path no earlier start drew, and each
    // distinct u was searched once for at least one path
    let (distinct_u, distinct) = (field("distinct_u"), field("distinct_paths"));
    assert!(
        1 <= distinct_u && distinct_u <= distinct && distinct <= field("starts"),
        "distinct_u {distinct_u}, distinct_paths {distinct} in:\n{stdout}"
    );
    // the worked example's G is connected, so the winning path's
    // component is all of it
    assert_eq!(field("g_components"), 1);
    assert_eq!(field("path_component"), 9);
    // both count work a function of the seed does, at any thread count;
    // arena_growths depends on which worker meets which G′ first, so it
    // stays out of the comparison
    for threads in ["1", "8"] {
        let (out, stderr, ok) = run(&["--demo", "--stats", "--threads", threads]);
        assert!(ok, "{stderr}");
        assert_eq!(
            stat(&out, "engine_threads"),
            threads.parse::<u64>().unwrap()
        );
        assert_eq!(stat(&out, "distinct_u"), distinct_u, "--threads {threads}");
        for key in [
            "g_components",
            "path_component",
            "bfs_ids_read",
            "sweep_ids_read",
        ] {
            assert_eq!(stat(&out, key), field(key), "{key} at --threads {threads}");
        }
        assert_eq!(
            stat(&out, "distinct_paths"),
            distinct,
            "--threads {threads}"
        );
    }

    // quiet mode keeps the number first but still prints the stats
    let (quiet, _, ok) = run(&["--demo", "--stats", "-q"]);
    assert!(ok);
    assert_eq!(quiet.lines().next().unwrap().trim(), "2");
    assert!(quiet.contains("[stats] dualize_kept_edges"));

    // stats with a filtered threshold reports the filtered count
    let (filtered, _, ok) = run(&["--demo", "--stats", "-t", "4"]);
    assert!(ok);
    assert!(
        filtered.contains("[stats] dualize_kept_edges 7"),
        "{filtered}"
    );
    assert!(
        filtered.contains("[stats] dualize_filtered_edges 2"),
        "{filtered}"
    );
}

#[test]
fn stats_flag_rejected_outside_two_way_runs() {
    for args in [
        &["--demo", "--stats", "-k", "3"][..],
        &["--demo", "--stats", "--place", "2x2"][..],
    ] {
        let (_, stderr, ok) = run(args);
        assert!(!ok, "{args:?}");
        assert!(stderr.contains("--stats"), "{stderr}");
    }
}

#[test]
fn stats_on_baselines_prints_real_counters() {
    let expect: [(&str, &[&str]); 3] = [
        (
            "kl",
            &["kl_restarts", "kl_passes", "kl_swaps", "kl_best_cut"],
        ),
        ("fm", &["fm_restarts", "fm_passes", "fm_best_cut"]),
        (
            "sa",
            &[
                "sa_temperatures",
                "sa_moves_attempted",
                "sa_moves_accepted",
                "sa_best_cut",
            ],
        ),
    ];
    for (alg, keys) in expect {
        let (stdout, stderr, ok) = run(&["--demo", "--stats", "-a", alg]);
        assert!(ok, "{alg}: {stderr}");
        for key in keys {
            assert!(
                stdout.contains(&format!("[stats] {key} ")),
                "{alg} missing {key}:\n{stdout}"
            );
        }
        assert!(!stdout.contains("not_instrumented"), "{alg}:\n{stdout}");
    }
    // quiet keeps the cut first but the counters still appear
    let (quiet, _, ok) = run(&["--demo", "--stats", "-a", "kl", "-q"]);
    assert!(ok);
    assert!(quiet.lines().next().unwrap().trim().parse::<u64>().is_ok());
    assert!(quiet.contains("[stats] kl_best_cut"), "{quiet}");
}

#[test]
fn stats_on_random_keeps_the_not_instrumented_note() {
    let (stdout, stderr, ok) = run(&["--demo", "--stats", "-a", "random"]);
    assert!(ok, "{stderr}");
    assert!(
        stdout.contains("[stats] not_instrumented random"),
        "{stdout}"
    );
}

#[test]
fn trace_and_profile_rejected_outside_instrumented_two_way_runs() {
    let dir = std::env::temp_dir();
    let trace = dir.join("fhp_cli_reject.ndjson");
    let trace = trace.to_str().unwrap();
    for args in [
        &["--demo", "--trace", trace, "-a", "random"][..],
        &["--demo", "--trace", trace, "-k", "3"][..],
        &["--demo", "--trace", trace, "--place", "2x2"][..],
        &["--demo", "--profile", "-a", "random"][..],
    ] {
        let (_, stderr, ok) = run(args);
        assert!(!ok, "{args:?}");
        assert!(
            stderr.contains("--trace") || stderr.contains("--profile"),
            "{stderr}"
        );
    }
}

#[test]
fn baseline_trace_writes_valid_ndjson_with_restart_spans() {
    for (alg, span, counter) in [
        ("kl", "\"name\":\"kl.restart\"", "\"name\":\"kl.best_cut\""),
        ("fm", "\"name\":\"fm.restart\"", "\"name\":\"fm.best_cut\""),
        ("sa", "\"name\":\"sa.walk\"", "\"name\":\"sa.best_cut\""),
    ] {
        let path = std::env::temp_dir().join(format!("fhp_cli_trace_{alg}.ndjson"));
        let path_s = path.to_str().unwrap();
        let (_, stderr, ok) = run(&["--demo", "-a", alg, "--trace", path_s]);
        assert!(ok, "{alg}: {stderr}");
        let text = std::fs::read_to_string(&path).expect("trace written");
        for line in text.lines() {
            fhp_obs::json::validate_trace_line(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        }
        assert!(text.contains(span), "{alg}:\n{text}");
        assert!(text.contains(counter), "{alg}:\n{text}");
        // heap accounting rides along in the volatile mem scope
        assert!(
            text.contains("\"name\":\"mem.peak_bytes\""),
            "{alg}:\n{text}"
        );
    }
}

#[test]
fn trace_writes_valid_ndjson_with_phase_spans() {
    let path = std::env::temp_dir().join("fhp_cli_trace.ndjson");
    let path_s = path.to_str().unwrap();
    let (_, stderr, ok) = run(&["--demo", "--trace", path_s, "-s", "4", "--seed", "1"]);
    assert!(ok, "{stderr}");
    let text = std::fs::read_to_string(&path).expect("trace file written");
    assert!(!text.is_empty());
    for line in text.lines() {
        fhp_obs::json::validate_trace_line(line).unwrap_or_else(|e| panic!("{e}: {line}"));
    }
    for name in [
        "\"name\":\"run.modules\"",
        "\"name\":\"dualize\"",
        "\"name\":\"runner.start\"",
        "\"name\":\"alg1.longest_path_bfs\"",
        "\"name\":\"alg1.dual_front_bfs\"",
        "\"name\":\"alg1.complete_cut\"",
        "\"name\":\"alg1.cut_size_hist\"",
    ] {
        assert!(text.contains(name), "missing {name} in:\n{text}");
    }
    // one runner.start span per start and pass
    let starts = text.matches("\"name\":\"runner.start\"").count();
    assert_eq!(starts, 3 * 4, "{text}");
}

#[test]
fn trace_is_canonically_identical_across_thread_counts() {
    let canonical = |threads: &str| -> Vec<String> {
        let path = std::env::temp_dir().join(format!("fhp_cli_trace_t{threads}.ndjson"));
        let path_s = path.to_str().unwrap();
        let (_, stderr, ok) = run(&[
            "--demo",
            "--trace",
            path_s,
            "-s",
            "8",
            "--seed",
            "0",
            "--threads",
            threads,
        ]);
        assert!(ok, "{stderr}");
        let text = std::fs::read_to_string(&path).expect("trace written");
        // strip the volatile fields (timings, thread lane) the same way
        // fhp_obs::canonical_line does, via the parsed event values; drop
        // `mem.*` events wholesale — allocation counts depend on
        // scheduling, so they are volatile as whole events
        text.lines()
            .filter_map(|l| {
                let v = fhp_obs::json::parse(l).expect("valid json");
                if let Some(fhp_obs::json::Json::Str(name)) = v.get("name") {
                    if fhp_obs::is_volatile_event(name) {
                        return None;
                    }
                }
                let pick = |k: &str| format!("{:?}", v.get(k));
                Some(format!(
                    "{}|{}|{}|{}|{}",
                    pick("name"),
                    pick("kind"),
                    pick("start_index"),
                    pick("stack"),
                    pick("fields")
                ))
            })
            .collect()
    };
    let one = canonical("1");
    assert_eq!(one, canonical("2"), "threads 2 diverged");
    assert_eq!(one, canonical("8"), "threads 8 diverged");
}

#[test]
fn metrics_snapshot_is_byte_identical_across_thread_counts() {
    let snapshot = |threads: &str| -> String {
        let path = std::env::temp_dir().join(format!("fhp_cli_metrics_t{threads}.ndjson"));
        let path_s = path.to_str().unwrap();
        let (_, stderr, ok) = run(&[
            "--demo",
            "--metrics",
            path_s,
            "-s",
            "8",
            "--seed",
            "0",
            "--threads",
            threads,
        ]);
        assert!(ok, "{stderr}");
        std::fs::read_to_string(&path).expect("metrics written")
    };
    let one = snapshot("1");
    assert_eq!(one, snapshot("2"), "threads 2 diverged");
    assert_eq!(one, snapshot("8"), "threads 8 diverged");
    assert!(!one.is_empty());
    for line in one.lines() {
        fhp_obs::json::validate_trace_line(line).unwrap_or_else(|e| panic!("{e}: {line}"));
    }
    for key in ["progress.starts_done", "progress.best_cut"] {
        assert!(one.contains(key), "missing {key}:\n{one}");
    }
    // volatile gauges never reach the canonical form
    assert!(!one.contains("mem."), "{one}");
    // the final best-cut gauge equals the reported demo cut
    let best = one
        .lines()
        .find(|l| l.contains("progress.best_cut"))
        .expect("best cut line");
    assert!(best.contains("\"value\":2"), "{best}");
}

#[test]
fn progress_flag_renders_live_lines() {
    let (stdout, stderr, ok) = run(&["--demo", "--progress", "-q"]);
    assert!(ok, "{stderr}");
    assert_eq!(stdout.lines().next().unwrap().trim(), "2");
    // the sampler's final line always lands, however short the run
    assert!(stderr.contains("[progress]"), "{stderr}");
    assert!(stderr.contains("done"), "{stderr}");
    assert!(stderr.contains("best cut 2"), "{stderr}");
}

#[test]
fn metrics_interval_streams_trace_valid_samples() {
    let path = std::env::temp_dir().join("fhp_cli_metrics_stream.ndjson");
    let path_s = path.to_str().unwrap();
    let (_, stderr, ok) = run(&[
        "--demo",
        "--metrics",
        path_s,
        "--metrics-interval",
        "1",
        "-s",
        "50",
    ]);
    assert!(ok, "{stderr}");
    let text = std::fs::read_to_string(&path).expect("metrics written");
    for line in text.lines() {
        fhp_obs::json::validate_trace_line(line).unwrap_or_else(|e| panic!("{e}: {line}"));
    }
    // the canonical snapshot is appended after any live samples
    assert!(text.contains("progress.best_cut"), "{text}");

    let (_, stderr, ok) = run(&["--demo", "--metrics-interval", "5"]);
    assert!(!ok);
    assert!(
        stderr.contains("--metrics-interval requires --metrics"),
        "{stderr}"
    );
}

#[test]
fn progress_and_metrics_rejected_outside_two_way_runs() {
    for args in [
        &["--demo", "--progress", "-k", "3"][..],
        &["--demo", "--progress", "--place", "2x2"][..],
        &["--demo", "--metrics", "/tmp/fhp_cli_m.ndjson", "-k", "3"][..],
    ] {
        let (_, stderr, ok) = run(args);
        assert!(!ok, "{args:?}");
        assert!(stderr.contains("--progress/--metrics"), "{stderr}");
    }
}

#[test]
fn profile_prints_folded_stacks_and_quiet_does_not_suppress_them() {
    let (stdout, stderr, ok) = run(&["--demo", "--profile", "-q", "-s", "2"]);
    assert!(ok, "{stderr}");
    // quiet stdout: just the cut
    assert_eq!(stdout.lines().next().unwrap().trim(), "2");
    // folded stacks on stderr: "path;path N" lines, semicolon-nested
    assert!(stderr.contains("dualize"), "{stderr}");
    assert!(stderr.contains("runner.start;alg1."), "{stderr}");
    for line in stderr.lines() {
        let (_, n) = line.rsplit_once(' ').expect("folded line");
        assert!(n.parse::<u64>().is_ok(), "{line}");
    }
}

#[test]
fn quiet_trace_still_writes_the_file() {
    let path = std::env::temp_dir().join("fhp_cli_quiet_trace.ndjson");
    let path_s = path.to_str().unwrap();
    let _ = std::fs::remove_file(&path);
    let (stdout, _, ok) = run(&["--demo", "--trace", path_s, "-q"]);
    assert!(ok);
    assert_eq!(stdout.trim(), "2");
    assert!(std::fs::metadata(&path).is_ok_and(|m| m.len() > 0));
}

#[test]
fn trace_to_unwritable_path_fails() {
    let (_, stderr, ok) = run(&["--demo", "--trace", "/definitely/not/here/t.ndjson"]);
    assert!(!ok);
    assert!(stderr.contains("cannot create"), "{stderr}");
}

#[test]
fn multiway_mode() {
    let (stdout, _, ok) = run(&["--demo", "-k", "3"]);
    assert!(ok);
    assert!(stdout.contains("k = 3"), "{stdout}");
    assert!(stdout.contains("block 2:"));
}

#[test]
fn place_mode() {
    let (stdout, _, ok) = run(&["--demo", "--place", "3x4"]);
    assert!(ok);
    assert!(stdout.contains("HPWL"), "{stdout}");
    let (quiet, _, ok2) = run(&["--demo", "--place", "3x4", "-q"]);
    assert!(ok2);
    assert!(quiet.trim().parse::<u64>().is_ok(), "{quiet}");
}

#[test]
fn place_mode_honours_balance() {
    // On this weighted netlist engineer's-method completion splits the
    // regions differently from min-degree completion, so `--balance`
    // must change the placement.
    let path = std::env::temp_dir().join("fhp_cli_place_balance.net");
    std::fs::write(
        &path,
        "s0: 6 3\ns1: 5 10 4 9\ns2: 10 3\ns3: 7 9 6\ns4: 8 9 5 1\ns5: 6 8\n\
         s6: 7 10 3\ns7: 3 4 9 1\ns8: 6 3\ns9: 9 10\ns10: 9 10 3\n\
         @weight 7 7\n@weight 8 9\n@weight 9 8\n",
    )
    .unwrap();
    let layout = |extra: &[&str]| {
        let mut args = vec![path.to_str().unwrap(), "--place", "4x3"];
        args.extend_from_slice(extra);
        let (stdout, stderr, ok) = run(&args);
        assert!(ok, "{stderr}");
        stdout
            .lines()
            .filter(|l| !l.starts_with("elapsed"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_ne!(layout(&[]), layout(&["--balance"]));
}

#[test]
fn reads_netlist_and_hgr_files() {
    let dir = std::env::temp_dir();
    let nl = dir.join("fhp_cli_test.net");
    std::fs::write(&nl, "a: 1 2\nb: 2 3\nc: 3 4\n").unwrap();
    let (stdout, _, ok) = run(&[nl.to_str().unwrap(), "-q"]);
    assert!(ok);
    assert!(stdout.trim().parse::<usize>().unwrap() <= 2);

    let hg = dir.join("fhp_cli_test.hgr");
    std::fs::write(&hg, "3 4\n1 2\n2 3\n3 4\n").unwrap();
    let (stdout, _, ok) = run(&[hg.to_str().unwrap(), "-q"]);
    assert!(ok);
    assert!(stdout.trim().parse::<usize>().unwrap() <= 2);
}

#[test]
fn check_flag_verifies_two_way_and_multiway_runs() {
    let (stdout, stderr, ok) = run(&["--demo", "--check"]);
    assert!(ok, "{stderr}");
    assert!(
        stdout.contains("[check] report_consistency ok ("),
        "{stdout}"
    );
    assert!(stdout.contains("cut size 2"), "{stdout}");

    let (stdout, stderr, ok) = run(&["--demo", "--check", "-k", "3"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("[check] multiway ok ("), "{stdout}");

    // quiet governs the report, not the diagnostics channels
    let (stdout, stderr, ok) = run(&["--demo", "--check", "-q"]);
    assert!(ok, "{stderr}");
    assert!(
        stdout.contains("[check] report_consistency ok ("),
        "{stdout}"
    );
    assert!(stdout.lines().any(|l| l.trim() == "2"), "{stdout}");
}

#[test]
fn check_flag_rejected_for_baselines_and_placement() {
    for args in [
        &["--demo", "--check", "-a", "kl"][..],
        &["--demo", "--check", "--place", "2x2"][..],
    ] {
        let (_, stderr, ok) = run(args);
        assert!(!ok, "{args:?}");
        assert!(stderr.contains("--check is only supported"), "{stderr}");
    }
}

#[test]
fn multilevel_mode_partitions_the_demo() {
    let (stdout, stderr, ok) = run(&["--demo", "--multilevel"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("cut size 2"), "{stdout}");
    assert!(stdout.contains("multilevel:"), "{stdout}");
    // quiet still prints just the number
    let (quiet, _, ok) = run(&["--demo", "--multilevel", "-q"]);
    assert!(ok);
    assert_eq!(quiet.trim(), "2");
    // --check cross-examines the multilevel outcome too
    let (checked, stderr, ok) = run(&["--demo", "--multilevel", "--check"]);
    assert!(ok, "{stderr}");
    assert!(
        checked.contains("[check] report_consistency ok ("),
        "{checked}"
    );
}

#[test]
fn multilevel_stats_pin_the_golden_vcycle() {
    // The demo netlist is the paper's Figure 2 example, but `Netlist`
    // numbers modules by first appearance in the text, so the heavy-edge
    // matching (ties to the lowest vertex id) coarsens 12 -> 7 here — a
    // different golden sequence from `worked_example_multilevel.rs`. On
    // this ordering the V-cycle finds a cut-1 partition (module 12 alone)
    // that strictly beats the flat cut of 2, so the guard keeps it.
    let (stdout, stderr, ok) = run(&[
        "--demo",
        "--multilevel",
        "--coarse-size",
        "6",
        "--vcycles",
        "2",
        "--stats",
        "--seed",
        "0",
        "-s",
        "10",
    ]);
    assert!(ok, "{stderr}");
    for line in [
        "[stats] ml_levels 1",
        "[stats] ml_level_sizes 12,7",
        "[stats] ml_coarsest_cut 1",
        "[stats] ml_level_cuts 1,1",
        "[stats] ml_vcycles 2",
        "[stats] ml_cycle_cuts 1,1",
        "[stats] ml_flat_cut 2",
        "[stats] ml_used_flat_guard false",
    ] {
        assert!(stdout.contains(line), "missing `{line}` in:\n{stdout}");
    }
    assert!(stdout.contains("cut size 1"), "{stdout}");
    // without --multilevel the ml_* family is absent
    let (flat, _, ok) = run(&["--demo", "--stats"]);
    assert!(ok);
    assert!(!flat.contains("[stats] ml_"), "{flat}");
}

#[test]
fn multilevel_cut_never_worse_than_flat_on_demo() {
    for seed in ["42", "43", "44"] {
        let (flat, stderr, ok) = run(&["--demo", "-q", "--seed", seed]);
        assert!(ok, "{stderr}");
        let (ml, stderr, ok) = run(&["--demo", "-q", "--seed", seed, "--multilevel"]);
        assert!(ok, "{stderr}");
        let flat: usize = flat.trim().parse().expect("flat cut");
        let ml: usize = ml.trim().parse().expect("ml cut");
        assert!(ml <= flat, "seed {seed}: ml {ml} vs flat {flat}");
    }
}

#[test]
fn multilevel_output_identical_across_thread_counts() {
    // the cut and every ml_* stat must be thread-count invariant; the
    // wall-time and thread-count diagnostics legitimately differ
    fn essence(args: &[&str]) -> Vec<String> {
        let (stdout, stderr, ok) = run(args);
        assert!(ok, "{stderr}");
        stdout
            .lines()
            .filter(|l| !l.starts_with("[stats]") || l.starts_with("[stats] ml_"))
            .map(str::to_owned)
            .collect()
    }
    let baseline = essence(&[
        "--demo",
        "--multilevel",
        "--coarse-size",
        "6",
        "--stats",
        "-q",
        "--seed",
        "0",
        "--threads",
        "1",
    ]);
    assert!(baseline.iter().any(|l| l.starts_with("[stats] ml_")));
    for threads in ["2", "8"] {
        let lines = essence(&[
            "--demo",
            "--multilevel",
            "--coarse-size",
            "6",
            "--stats",
            "-q",
            "--seed",
            "0",
            "--threads",
            threads,
        ]);
        assert_eq!(lines, baseline, "--threads {threads} changed the report");
    }
}

#[test]
fn multilevel_trace_records_the_vcycle_phases() {
    let path = std::env::temp_dir().join("fhp_cli_ml_trace.ndjson");
    let path_s = path.to_str().unwrap();
    let (_, stderr, ok) = run(&[
        "--demo",
        "--multilevel",
        "--coarse-size",
        "6",
        "--trace",
        path_s,
    ]);
    assert!(ok, "{stderr}");
    let text = std::fs::read_to_string(&path).expect("trace written");
    for line in text.lines() {
        fhp_obs::json::validate_trace_line(line).unwrap_or_else(|e| panic!("{e}: {line}"));
    }
    for name in [
        "\"name\":\"ml.coarsen\"",
        "\"name\":\"ml.initial_partition\"",
        "\"name\":\"ml.refine\"",
        "\"name\":\"ml.levels\"",
    ] {
        assert!(text.contains(name), "missing {name} in:\n{text}");
    }
}

#[test]
fn multilevel_rejected_outside_two_way_alg1() {
    for args in [
        &["--demo", "--multilevel", "-a", "kl"][..],
        &["--demo", "--multilevel", "-k", "3"][..],
        &["--demo", "--multilevel", "--place", "2x2"][..],
    ] {
        let (_, stderr, ok) = run(args);
        assert!(!ok, "{args:?}");
        assert!(
            stderr.contains("--multilevel is only supported"),
            "{stderr}"
        );
    }
}

#[test]
fn multilevel_flag_values_are_validated() {
    let (_, stderr, ok) = run(&["--demo", "--vcycles", "2"]);
    assert!(!ok);
    assert!(
        stderr.contains("--vcycles requires --multilevel"),
        "{stderr}"
    );
    let (_, stderr, ok) = run(&["--demo", "--coarse-size", "8"]);
    assert!(!ok);
    assert!(
        stderr.contains("--coarse-size requires --multilevel"),
        "{stderr}"
    );
    let (_, stderr, ok) = run(&["--demo", "--multilevel", "--vcycles", "0"]);
    assert!(!ok);
    assert!(stderr.contains("vcycles must be at least 1"), "{stderr}");
    let (_, stderr, ok) = run(&["--demo", "--multilevel", "--coarse-size", "1"]);
    assert!(!ok);
    assert!(
        stderr.contains("coarse size must be at least 2"),
        "{stderr}"
    );
}

#[test]
fn invalid_start_counts_are_refused_in_every_mode() {
    // the cap is checked before a run reserves its per-start tables, and
    // the k-way and placement drivers, which split a region evenly when
    // its run fails, check it before they start
    for (args, message) in [
        (
            &["--demo", "--starts", "4097"][..],
            "starts must be at most 4096",
        ),
        (
            &["--demo", "-k", "3", "--starts", "4097"][..],
            "starts must be at most 4096",
        ),
        (
            &["--demo", "-k", "3", "--starts", "0"][..],
            "starts must be at least 1",
        ),
        (
            &["--demo", "--place", "4x3", "--starts", "0"][..],
            "starts must be at least 1",
        ),
    ] {
        let out = fhp().args(args).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("invalid configuration: {message}")),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn pair_cap_is_an_unknown_option() {
    // Algorithm I builds no pairs, so the dualizer's pair cap is no flag
    for args in [
        &["--demo", "--pair-cap", "3"][..],
        &["--demo", "--pair-cap", "0"][..],
    ] {
        let out = fhp().args(args).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown option `--pair-cap`"), "{stderr}");
    }
}

#[test]
fn bad_usage_fails_with_help() {
    let (_, stderr, ok) = run(&[]);
    assert!(!ok);
    assert!(stderr.contains("usage"), "{stderr}");
    let (_, stderr2, ok2) = run(&["--demo", "-a", "nope"]);
    assert!(!ok2);
    assert!(stderr2.contains("unknown algorithm"));
    let (_, stderr3, ok3) = run(&["--demo", "--place", "banana"]);
    assert!(!ok3);
    assert!(stderr3.contains("ROWSxCOLS"));
}

#[test]
fn missing_file_reports_error() {
    let (_, stderr, ok) = run(&["/definitely/not/here.net"]);
    assert!(!ok);
    assert!(stderr.contains("cannot read"));
}

#[test]
fn parse_errors_carry_line_numbers() {
    let p = std::env::temp_dir().join("fhp_cli_bad.net");
    std::fs::write(&p, "a: 1 2\nbroken line\n").unwrap();
    let (_, stderr, ok) = run(&[p.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("line 2"), "{stderr}");
}
