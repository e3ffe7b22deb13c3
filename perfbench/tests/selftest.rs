//! Benchmark self-tests: a tiny smoke run of every workload, metric-name
//! hygiene against `BENCHMARK.json`, bit-identity of the traced replay,
//! and error accounting for a corrupted reply.

use bytes::Bytes;
use mime_perfbench::bench::{self, Options};
use mime_perfbench::ledger::replay;
use mime_perfbench::model::{self, Geometry, PoolItem};
use mime_perfbench::serve::{drive, schedule};
use mime_perfbench::util::{
    bit_equal, median, valid_name, windowed, windowed_rate, Metric,
};
use mime_perfbench::{per_layer_names, Workload, END_TO_END};
use mime_runtime::{ComputePath, HardwareExecutor, SparseDispatch};
use mime_serve::proto::{read_frame, write_frame, Frame, RequestInput};
use mime_systolic::ArrayConfig;
use mime_tensor::{ConvScratch, Tensor};
use std::io::BufReader;
use std::net::TcpListener;
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits in the repo")
        .into()
}

/// The `mime` CLI: an existing release build, or one built for the test.
fn mime_binary() -> PathBuf {
    let root = repo_root();
    let mut candidates: Vec<PathBuf> = Vec::new();
    if let Ok(dir) = std::env::var("CARGO_TARGET_DIR") {
        candidates.push(root.join(dir).join("release/mime"));
    }
    candidates.push(root.join(".bench_build/release/mime"));
    candidates.push(root.join("target/release/mime"));
    if let Some(found) = candidates.into_iter().find(|p| p.is_file()) {
        return found;
    }
    let target = Path::new(env!("CARGO_TARGET_TMPDIR")).join("mime-cli");
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let status = std::process::Command::new(cargo)
        .args(["build", "--offline", "--release", "-p", "mime-cli"])
        .current_dir(&root)
        .env("CARGO_TARGET_DIR", &target)
        .status()
        .expect("run cargo");
    assert!(status.success(), "building the mime CLI failed");
    target.join("release/mime")
}

fn tiny_options(workload: Workload, trace: bool, work: PathBuf) -> Options {
    Options {
        workload,
        seed: 3,
        seconds: 0.4,
        trace,
        mime: mime_binary(),
        perfbench: PathBuf::from(env!("CARGO_BIN_EXE_perfbench")),
        work,
        tiny: true,
    }
}

fn smoke(workload: Workload, trace: bool) -> Vec<Metric> {
    let work = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("smoke-{workload:?}-{trace}-{}", std::process::id()));
    let opts = tiny_options(workload, trace, work.clone());
    let out =
        bench::run(&opts).unwrap_or_else(|e| panic!("{workload:?} trace={trace}: {e}"));
    let _ = std::fs::remove_dir_all(&work);
    assert!(out.correct, "{workload:?} trace={trace}: {:?}", out.lines);
    assert_eq!(out.tally.failed, 0);
    assert!(out.tally.attempted > 0);
    out.metrics
}

#[test]
fn tiny_smoke_run_of_every_workload() {
    for w in [Workload::ServeMix, Workload::OfflineSingle, Workload::OfflinePipelined] {
        for trace in [false, true] {
            let metrics = smoke(w, trace);
            for m in &metrics {
                assert!(valid_name(&m.name), "bad metric name {:?}", m.name);
                assert!(!m.unit.is_empty(), "{} has no unit", m.name);
                assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
            }
        }
    }
}

#[test]
fn a_failed_prepare_child_fails_the_run() {
    // a plain file where the work directory should be: the `prepare`
    // child cannot create its output directory and exits non-zero
    let blocker = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("not-a-dir-{}", std::process::id()));
    std::fs::write(&blocker, b"").expect("write blocker");
    let opts = tiny_options(Workload::OfflineSingle, false, blocker.clone());
    let err = bench::run(&opts).err();
    let _ = std::fs::remove_file(&blocker);
    let err = err.expect("the run fails when prepare fails");
    assert!(err.contains("prepare serve failed"), "{err}");
}

/// The `"name"` values of one top-level section of `BENCHMARK.json`.
fn names_in_section(json: &str, section: &str, next: Option<&str>) -> Vec<String> {
    let start = json.find(&format!("\"{section}\"")).expect("section present");
    let end = next
        .and_then(|n| json[start..].find(&format!("\"{n}\"")))
        .map_or(json.len(), |e| start + e);
    json[start..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s.split('"').next().expect("closing quote").to_string())
        .collect()
}

#[test]
fn metric_names_are_well_formed_and_match_benchmark_json() {
    let json = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json at the repo root");
    let mut e2e = names_in_section(&json, "end_to_end", Some("per_layer"));
    let mut per = names_in_section(&json, "per_layer", None);
    let mut want_e2e: Vec<String> = END_TO_END.iter().map(|s| s.to_string()).collect();
    let mut want_per = per_layer_names();
    for v in [&mut e2e, &mut per, &mut want_e2e, &mut want_per] {
        v.sort();
    }
    assert_eq!(e2e, want_e2e);
    assert_eq!(per, want_per);
    for n in e2e.iter().chain(&per) {
        assert!(valid_name(n), "{n}");
    }
    let units = json.matches("\"unit\": \"").count();
    assert_eq!(units, e2e.len() + per.len(), "every metric carries a unit");
}

#[test]
fn replay_is_bit_identical_for_one_image_and_a_mixed_batch() {
    let p = model::prepare(Geometry::Serve, 11, 64, 3).expect("prepare");
    let mut rx = model::receiver(Geometry::Serve).expect("receiver");
    let (plans, _) = model::load_plans(&p.image, &mut rx).expect("load");
    let mut exec = HardwareExecutor::with_options(
        ArrayConfig::eyeriss_65nm(),
        ComputePath::Software,
        SparseDispatch::Auto,
    );
    let mut scratch = ConvScratch::new();
    let item = &p.pool[0];
    let plan = &plans[item.task as usize];
    let got = exec.run_image(plan, &item.input, true).expect("run_image");
    let r = replay(&[plan], &[&item.input], SparseDispatch::Auto, &mut scratch)
        .expect("replay");
    assert!(bit_equal(&got, &r.logits[0]));
    assert!(bit_equal(&got, &item.reference));
    assert_eq!(r.layers.len(), 16);

    // tasks 0,1,2,0,1,2 — the pool interleaves tasks
    let views: Vec<_> = p.pool[..6].iter().map(|i| &plans[i.task as usize]).collect();
    let images: Vec<&Tensor> = p.pool[..6].iter().map(|i| &i.input).collect();
    let got = exec.run_coalesced(&views, &images, true).expect("run_coalesced");
    let r = replay(&views, &images, SparseDispatch::Auto, &mut scratch).expect("replay");
    for ((g, rl), item) in got.iter().zip(&r.logits).zip(&p.pool[..6]) {
        assert!(bit_equal(g, rl));
        assert!(bit_equal(g, &item.reference));
    }
}

#[test]
fn prepared_inputs_repeat_for_a_seed() {
    let a = model::prepare(Geometry::Serve, 5, 64, 2).expect("prepare");
    let b = model::prepare(Geometry::Serve, 5, 64, 2).expect("prepare");
    assert_eq!(a.image, b.image);
    assert_eq!(a.pool.len(), 6);
    for (x, y) in a.pool.iter().zip(&b.pool) {
        assert!(bit_equal(x.input.as_slice(), y.input.as_slice()));
        assert!(bit_equal(&x.reference, &y.reference));
    }
    assert!(a.in_band(), "{:?}", a.sparsity);
    let c = model::prepare(Geometry::Serve, 6, 64, 2).expect("prepare");
    assert_ne!(a.image, c.image, "another seed builds another model");
    let _: &Bytes = &c.image;
}

#[test]
fn corrupted_reply_logit_counts_as_a_failure() {
    // A stand-in front door answering each request with its reference
    // logits, except request 3, whose first logit has one bit flipped.
    let pool: Vec<PoolItem> = (0..4)
        .map(|i| PoolItem {
            task: i % 3,
            input: Tensor::full(&[3, 32, 32], i as f32),
            reference: vec![i as f32, 0.5, -1.25],
        })
        .collect();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let arrivals = schedule(9, 2000.0, 0.02, pool.len());
    assert!(arrivals.len() > 4);
    let refs: Vec<Vec<f32>> = pool.iter().map(|p| p.reference.clone()).collect();
    let run = std::thread::scope(|s| {
        s.spawn(|| {
            let (stream, _) = listener.accept().expect("accept");
            let mut tx = stream.try_clone().expect("clone");
            let mut rx = BufReader::new(stream);
            while let Ok(Frame::Request { id, input: RequestInput::Tensor(t), .. }) =
                read_frame(&mut rx)
            {
                let mut logits = refs[t.as_slice()[0] as usize].clone();
                if id == 3 {
                    logits[0] = f32::from_bits(logits[0].to_bits() ^ 1);
                }
                let reply = Frame::Reply {
                    id,
                    trace: 1,
                    degraded: false,
                    queue_us: 1,
                    compute_us: 1,
                    rung: 0,
                    logits,
                };
                write_frame(&mut tx, &reply).expect("reply");
            }
        });
        drive(addr, &pool, &arrivals, 1, None).expect("drive")
    });
    assert_eq!(run.tally.attempted, arrivals.len() as u64);
    assert_eq!(run.tally.failed, 1);
    assert_eq!(run.tally.mismatched, 1);
    assert!((run.tally.error_rate() - 1.0 / arrivals.len() as f64).abs() < 1e-12);
}

#[test]
fn windowed_figures_ignore_a_burst_inside_one_window() {
    // 10 s of 1 ms calls, with the second window 50x slower and emptier
    let mut samples = Vec::new();
    for i in 0..1000 {
        let t = i as f64 / 100.0;
        let slow = (2.0..4.0).contains(&t);
        if !slow || i % 10 == 0 {
            samples.push((t, if slow { 50.0 } else { 1.0 }));
        }
    }
    assert_eq!(windowed(&samples, 10.0, median), 1.0);
    let done: Vec<f64> = samples.iter().map(|s| s.0).collect();
    assert!((windowed_rate(&done, 10.0) - 100.0).abs() < 1e-9);
}
