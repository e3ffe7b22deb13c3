//! Every item of a `BatchRequest` gets its own `replica_request` span
//! under its trace id (DESIGN.md §12), shipped before its terminal frame
//! so the front door's stitched trace is complete for every reply. A
//! test binary of its own because span recording is process-global.

use mime_core::{MimeNetwork, MultiTaskModel};
use mime_nn::{build_network, vgg16_arch};
use mime_runtime::{prepack_plans, BoundNetwork};
use mime_serve::proto::{read_frame, write_frame, Frame, ProtoError, RequestInput};
use mime_serve::replica::run_replica_worker;
use mime_serve::ReplicaWorkerConfig;
use mime_systolic::ArrayConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn plans(tasks: usize) -> Vec<BoundNetwork> {
    let arch = vgg16_arch(0.0625, 32, 3, 4, 8);
    let mut rng = StdRng::seed_from_u64(7);
    let parent = build_network(&arch, &mut rng);
    let net = MimeNetwork::from_trained(&arch, &parent, 0.02).unwrap();
    let mut model = MultiTaskModel::new(net);
    for i in 0..tasks {
        let banks = model
            .network()
            .export_thresholds()
            .into_iter()
            .map(|t| t.map(|_| 0.02 + 0.05 * i as f32))
            .collect();
        model.register_task(format!("task{i}"), banks).unwrap();
    }
    let mut plans: Vec<BoundNetwork> = (0..tasks)
        .map(|i| {
            model.activate(&format!("task{i}")).unwrap();
            BoundNetwork::from_mime(model.network()).unwrap()
        })
        .collect();
    prepack_plans(&mut plans).unwrap();
    plans
}

#[test]
fn every_batch_item_ships_one_replica_request_span() {
    mime_obs::trace::set_enabled(true);
    let plans = plans(2);
    let items: Vec<Frame> = (1..=3u64)
        .map(|id| Frame::Request {
            id,
            trace: 500 + id,
            task: (id % 2) as u32,
            deadline_ms: 0,
            rung: 0,
            input: RequestInput::Probe(id as u32),
        })
        .collect();
    let mut input = Vec::new();
    write_frame(&mut input, &Frame::BatchRequest { items }).unwrap();
    let cfg = ReplicaWorkerConfig { obs: true, ..ReplicaWorkerConfig::default() };
    let mut output = Vec::new();
    run_replica_worker(
        &plans,
        ArrayConfig::default(),
        cfg,
        &mut input.as_slice(),
        &mut output,
    )
    .unwrap();

    let mut spans = Vec::new();
    let mut answered = Vec::new();
    let mut cursor = output.as_slice();
    let spans_for = |spans: &[mime_obs::trace::SpanEvent], trace: u64| {
        let trace = trace.to_string();
        spans
            .iter()
            .filter(|s| {
                s.name == "replica_request"
                    && s.args.iter().any(|(k, v)| k == "trace" && *v == trace)
            })
            .count()
    };
    loop {
        match read_frame(&mut cursor) {
            Ok(Frame::TraceChunk { spans: chunk, .. }) => spans.extend(chunk),
            Ok(Frame::Reply { id, trace, .. } | Frame::ErrorReply { id, trace, .. }) => {
                assert_eq!(
                    spans_for(&spans, trace),
                    1,
                    "request {id} (trace {trace}) answered before its replica_request span shipped"
                );
                answered.push(id);
            }
            Ok(_) => {}
            Err(ProtoError::Closed) => break,
            Err(e) => panic!("{e}"),
        }
    }
    for id in 1..=3u64 {
        let n = spans_for(&spans, 500 + id);
        assert_eq!(n, 1, "request {id} (trace {}) has {n} replica_request spans", 500 + id);
    }
    assert_eq!(answered, [1, 2, 3], "one terminal frame per item, in request order");
}
