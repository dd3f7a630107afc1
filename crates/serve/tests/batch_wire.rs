//! The `submit_batch` wire format over real TCP: each distinct design
//! travels once and jobs name it by index, the server groups the jobs by
//! shared cone (one digest per design), every served verdict equals a
//! direct `process_job` run, and a bad design index is answered with an
//! error that names the job while the connection stays usable.

use std::borrow::Cow;
use std::collections::BTreeSet;
use std::sync::atomic::AtomicBool;

use ipcl_bmc::PropertyKind;
use ipcl_checker::ProofStrategy;
use ipcl_core::example::ExampleArch;
use ipcl_core::FunctionalSpec;
use ipcl_pipesim::BrokenVariant;
use ipcl_rtl::{Netlist, SignalKind};
use ipcl_serve::protocol::write_batch_json;
use ipcl_serve::{
    process_job, Client, JobRequest, ProofCache, PropertyRequest, Server, ServerConfig,
};
use ipcl_synth::{synthesize_broken_interlock, synthesize_interlock_with, SynthesisOptions};
use ipcl_trace::json::Json;
use ipcl_trace::{TraceConfig, Tracer, Value};

fn registered(spec: &FunctionalSpec) -> Netlist {
    let options = SynthesisOptions {
        registered_outputs: true,
        reset_value: true,
        ..Default::default()
    };
    synthesize_interlock_with(spec, options).netlist().clone()
}

/// Rebuilds `netlist` signal by signal (so ids are kept): wires outside
/// `keep` get fresh names when `rename` is set, and the register named
/// `flip` gets the opposite reset value.
fn rebuild(
    netlist: &Netlist,
    keep: &BTreeSet<String>,
    rename: bool,
    flip: Option<&str>,
) -> Netlist {
    let mut copy = Netlist::new(netlist.name());
    let mut edges = Vec::new();
    for (id, signal) in netlist.iter() {
        let name = match signal.kind {
            SignalKind::Wire(_) if rename && !keep.contains(&signal.name) => {
                format!("renamed__{}", id.index())
            }
            _ => signal.name.clone(),
        };
        let new = match &signal.kind {
            SignalKind::Input => copy.input(&name),
            SignalKind::Register { init, next } => {
                edges.push((id, *next));
                copy.register(&name, *init != (flip == Some(name.as_str())))
            }
            SignalKind::Wire(gate) => copy.wire(&name, gate.clone()),
        };
        assert_eq!(new, id, "a rebuild keeps signal ids");
    }
    for (register, next) in edges {
        if let Some(next) = next {
            copy.connect_register(register, next).expect("same edge");
        }
    }
    for &output in netlist.outputs() {
        copy.mark_output(output);
    }
    copy
}

/// Both directions of every stage of `spec`, as jobs on `netlist`.
fn jobs_on(spec: &FunctionalSpec, netlist: &Netlist) -> Vec<JobRequest> {
    (0..spec.stages().len())
        .flat_map(|stage_index| {
            [PropertyKind::Functional, PropertyKind::Performance].map(|kind| JobRequest {
                spec: spec.clone(),
                netlist: netlist.clone(),
                property: PropertyRequest {
                    stage_index,
                    kind,
                    latency: None,
                },
                strategy: ProofStrategy::Pdr,
                threads: 1,
            })
        })
        .collect()
}

fn field(fields: &[(Cow<'static, str>, Value)], name: &str) -> Option<u64> {
    fields.iter().find_map(|(k, v)| match v {
        Value::U64(n) if k == name => Some(*n),
        _ => None,
    })
}

#[test]
fn batch_groups_by_design_and_serves_direct_verdicts() {
    let spec = ExampleArch::new().functional_spec();
    let interface: BTreeSet<String> = spec
        .moe_vars()
        .into_iter()
        .chain(spec.env_vars())
        .map(|v| spec.pool().name_or_fallback(v))
        .collect();
    let base = registered(&spec);
    let broken = synthesize_broken_interlock(&spec, BrokenVariant::IgnoreScoreboard)
        .netlist()
        .clone();
    let renamed = rebuild(&base, &interface, true, None);
    let register = base.signal(base.registers()[0]).name.clone();
    let flipped = rebuild(&base, &interface, false, Some(&register));
    assert_ne!(renamed, base, "the renamed copy is a different payload");
    assert_ne!(flipped, base, "the flipped copy is a different payload");

    // Interleave the designs' jobs so the grouping cannot lean on order.
    let per_design: Vec<Vec<JobRequest>> = [&base, &broken, &renamed, &flipped]
        .into_iter()
        .map(|netlist| jobs_on(&spec, netlist))
        .collect();
    let mut jobs = Vec::new();
    for k in 0..per_design[0].len() {
        for design in &per_design {
            jobs.push(design[k].clone());
        }
    }

    // Each distinct (spec, netlist) pair travels once.
    let wire = Json::parse(&format!("{{{}}}", write_batch_json(&jobs))).expect("valid JSON");
    assert_eq!(
        wire.get("designs")
            .and_then(Json::as_array)
            .map(<[Json]>::len),
        Some(4)
    );
    assert_eq!(
        wire.get("jobs").and_then(Json::as_array).map(<[Json]>::len),
        Some(jobs.len())
    );

    let tracer = Tracer::new(TraceConfig::enabled());
    let server = Server::start(ServerConfig::default(), tracer.clone()).expect("bind");
    let mut client = Client::connect(&server.local_addr().to_string()).expect("connect");
    let (ids, _) = client.submit_batch(&jobs).expect("submit_batch");
    assert_eq!(ids.len(), jobs.len());
    let served: Vec<_> = ids
        .iter()
        .map(|&id| client.wait(id).expect("wait"))
        .collect();
    server.shutdown();

    // Four payloads, one digest each; the renamed copy joins the base
    // design's group, the flipped reset value splits off its own.
    let snapshot = tracer.snapshot().expect("tracing enabled");
    let presolved = snapshot
        .events
        .iter()
        .find(|e| e.kind == "serve.batch_presolved")
        .expect("the batch was pre-solved");
    assert_eq!(field(&presolved.fields, "jobs"), Some(jobs.len() as u64));
    assert_eq!(field(&presolved.fields, "designs"), Some(4));
    assert_eq!(field(&presolved.fields, "groups"), Some(3));

    let cache = ProofCache::new(None);
    let cancel = AtomicBool::new(false);
    for (job, outcome) in jobs.iter().zip(&served) {
        let direct = process_job(job, &cancel, &cache, &Tracer::disabled());
        assert_eq!(outcome.property, direct.property);
        assert_eq!(outcome.verdict, direct.verdict, "{}", direct.property);
    }
}

#[test]
fn a_missing_design_index_names_the_job_and_the_server_keeps_answering() {
    let spec = ExampleArch::new().functional_spec();
    let jobs = jobs_on(&spec, &registered(&spec));
    let body = write_batch_json(&jobs[..2]);
    let last = body
        .rfind("\"design\": 0")
        .expect("the second job names design 0");
    let line = format!(
        "{{\"cmd\": \"submit_batch\", {}\"design\": 7{}}}",
        &body[..last],
        &body[last + "\"design\": 0".len()..]
    );

    let server = Server::start(ServerConfig::default(), Tracer::disabled()).expect("bind");
    let mut client = Client::connect(&server.local_addr().to_string()).expect("connect");
    let error = client.request(&line).expect_err("design 7 does not exist");
    assert!(error.contains("job 1"), "{error}");
    assert!(error.contains("design 7"), "{error}");
    let (ids, _) = client
        .submit_batch(&jobs[..2])
        .expect("the connection survives the bad batch");
    assert_eq!(ids.len(), 2);
    assert!(client.stats().is_ok());
    server.shutdown();
}
