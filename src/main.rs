//! `edd` — command-line front-end for the EDD co-search reproduction.
//!
//! ```text
//! edd search  --target fpga-recursive --blocks 4 --classes 6 --epochs 8 --out arch.json
//! edd eval    --arch arch.json
//! edd compile --arch arch.json --out model.eddm --passes all
//! edd qinfer  --arch arch.json            # or: --artifact model.eddm
//! edd serve   --models 3 --requests 600   # or: --artifacts a.eddm,b.eddm
//! edd stream  --rows 96 --hop 8 --verify  # or: --artifact model.eddm
//! edd zoo
//! edd devices
//! ```
//!
//! `search` runs the co-search on SynthImageNet and writes the derived
//! architecture as JSON; `eval` loads such a JSON artifact and reports its
//! modeled latency/throughput/resources on every hardware model; `compile`
//! QAT-trains and calibrates an architecture, lowers it through the
//! `edd-ir` pass pipeline, and writes a hot-loadable `.eddm` model
//! artifact; `qinfer` compiles an architecture into the true integer
//! inference engine (int8/int4 weights, fixed-point requantization) — or
//! hot-loads a compiled artifact — and serves batches through it; `serve`
//! runs the multi-tenant dynamic-batching server over the compiled tiny
//! zoo (or hot-loaded artifacts) under a closed-loop synthetic load;
//! `stream` converts an engine into a pulsed model and classifies a
//! synthetic long signal one row-slice at a time through sliding windows
//! with bounded carried state; `zoo` prints the model-zoo leaderboard;
//! `devices` lists the built-in device descriptors.

use edd::core::{
    calibrate, lower_to_graph, Calibration, CoSearch, CoSearchConfig, DerivedArch, DeviceTarget,
    QatModel, SearchSpace, SweepSearch, ENGINE_MAX_BITS,
};
use edd::data::{SynthConfig, SynthDataset};
use edd::hw::gpu::GpuPrecision;
use edd::hw::{
    eval_gpu, eval_pipelined, eval_recursive, predicted_throughput_fps, tune_pipelined,
    tune_recursive, AccelDevice, FpgaDevice, GpuDevice,
};
use edd::ir::{artifact, CompiledModel, PassConfig, PASS_NAMES};
use edd::nn::Module;
use edd::runtime::InferServer;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::Arc;

/// Parsed command-line options: positional subcommand + `--key value`
/// flags.
#[derive(Debug, Default)]
struct Args {
    command: String,
    flags: HashMap<String, String>,
}

/// Parses `argv`-style input. Flags must be `--key value` pairs; bare
/// `--key` (no value) is treated as `"true"`.
fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut iter = argv.iter().peekable();
    if let Some(cmd) = iter.next() {
        args.command = cmd.clone();
    }
    while let Some(token) = iter.next() {
        let Some(key) = token.strip_prefix("--") else {
            return Err(format!("unexpected positional argument `{token}`"));
        };
        let value = match iter.peek() {
            Some(v) if !v.starts_with("--") => iter.next().expect("peeked").clone(),
            _ => "true".to_string(),
        };
        args.flags.insert(key.to_string(), value);
    }
    Ok(args)
}

impl Args {
    fn get_usize(&self, key: &str, default: usize) -> Result<usize, String> {
        match self.flags.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key} expects a number, got `{v}`")),
        }
    }

    fn get_str(&self, key: &str, default: &str) -> String {
        self.flags
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }
}

/// Resolves a target name to a [`DeviceTarget`].
fn parse_target(name: &str) -> Result<DeviceTarget, String> {
    match name {
        "gpu" => Ok(DeviceTarget::Gpu(GpuDevice::titan_rtx())),
        "fpga-recursive" => Ok(DeviceTarget::FpgaRecursive(FpgaDevice::zcu102())),
        "fpga-pipelined" => Ok(DeviceTarget::FpgaPipelined(FpgaDevice::zc706())),
        "dedicated" => Ok(DeviceTarget::Dedicated(AccelDevice::loom_like())),
        other => Err(format!(
            "unknown target `{other}` (expected gpu | fpga-recursive | fpga-pipelined | dedicated)"
        )),
    }
}

/// Parses a `--passes` spec: `all`, `none`, or a comma-separated subset
/// of [`PASS_NAMES`].
fn parse_passes(spec: &str) -> Result<PassConfig, String> {
    match spec {
        "all" => Ok(PassConfig::all()),
        "none" => Ok(PassConfig::none()),
        list => {
            let mut cfg = PassConfig::none();
            for name in list.split(',').map(str::trim).filter(|s| !s.is_empty()) {
                cfg.set(name, true).map_err(|unknown| {
                    format!(
                        "unknown pass `{unknown}` (expected all | none | comma-list of {})",
                        PASS_NAMES.join(", ")
                    )
                })?;
            }
            Ok(cfg)
        }
    }
}

/// Installs a JSONL telemetry sink when `--trace-out` is given. Returns
/// whether a sink was installed (so the caller can flush it at the end).
fn install_trace_sink(args: &Args) -> Result<bool, String> {
    let Some(path) = args.flags.get("trace-out") else {
        return Ok(false);
    };
    let sink = edd::runtime::JsonlSink::create(std::path::Path::new(path))
        .map_err(|e| format!("opening trace file {path}: {e}"))?;
    edd::runtime::telemetry::set_global(Arc::new(sink));
    Ok(true)
}

fn cmd_search(args: &Args) -> Result<(), String> {
    let target = parse_target(&args.get_str("target", "fpga-recursive"))?;
    let blocks = args.get_usize("blocks", 4)?;
    let classes = args.get_usize("classes", 6)?;
    let epochs = args.get_usize("epochs", 8)?;
    let seed = args.get_usize("seed", 42)? as u64;
    let out = args.get_str("out", "edd_arch.json");
    let ckpt_dir = args.flags.get("checkpoint-dir").cloned();
    let ckpt_every = args.get_usize("checkpoint-every", 1)?;
    let ckpt_keep = args.get_usize("checkpoint-keep", 3)?;
    let resume = args.flags.get("resume").cloned();
    let tracing = install_trace_sink(args)?;

    let space = SearchSpace::tiny(blocks, 16, classes, target.default_quant_bits());
    println!(
        "searching {} blocks x {} ops x {} quantizations for {} ({} epochs)...",
        space.num_blocks(),
        space.num_ops(),
        space.num_quant(),
        target.label(),
        epochs
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let config = CoSearchConfig {
        epochs,
        warmup_epochs: (epochs / 5).max(1),
        ..CoSearchConfig::default()
    };
    let data = SynthDataset::new(SynthConfig {
        num_classes: classes,
        image_size: 16,
        ..SynthConfig::default()
    });
    let train = data.split(6, 16, 1);
    let val = data.split(3, 16, 2);
    let mut search = CoSearch::new(space, target, config, &mut rng).map_err(|e| e.to_string())?;
    if let Some(dir) = &ckpt_dir {
        search
            .checkpoint_into(dir)
            .checkpoint_every(ckpt_every)
            .checkpoint_keep(ckpt_keep);
        println!("checkpointing into {dir} (every {ckpt_every} epoch(s), keep {ckpt_keep})");
    }
    if let Some(path) = &resume {
        search
            .resume_from(std::path::Path::new(path))
            .map_err(|e| e.to_string())?;
        println!("resuming from {path}");
    }
    let outcome = search
        .run(&train, &val, &mut rng)
        .map_err(|e| e.to_string())?;
    if tracing {
        edd::runtime::telemetry::global().flush();
    }
    for h in &outcome.history {
        println!(
            "  epoch {:>2}: train acc {:.2}, val acc {:.2}, E[perf] {:.4}, E[res] {:.0}",
            h.epoch, h.train_acc, h.val_acc, h.expected_perf, h.expected_res
        );
    }
    println!("\n{}", outcome.derived.summary());
    let json = outcome.derived.to_json().map_err(|e| e.to_string())?;
    std::fs::write(&out, &json).map_err(|e| format!("writing {out}: {e}"))?;
    println!("wrote {out} ({} bytes)", json.len());
    Ok(())
}

/// Parses a comma-separated `--targets` list and computes the shared
/// quantization menu: the intersection of the per-target menus, in the
/// first target's order. The sweep trains one supernet for all targets,
/// so every searched bit-width must have an implementation on each.
fn parse_sweep_targets(spec: &str) -> Result<(Vec<DeviceTarget>, Vec<u32>), String> {
    let mut targets = Vec::new();
    for name in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        targets.push(parse_target(name)?);
    }
    if targets.is_empty() {
        return Err("sweep requires --targets t1,t2,... (at least one)".into());
    }
    let mut menu = targets[0].default_quant_bits();
    for t in &targets[1..] {
        let theirs = t.default_quant_bits();
        menu.retain(|q| theirs.contains(q));
    }
    if menu.is_empty() {
        return Err(format!(
            "targets `{spec}` share no quantization bit-width: their menus are disjoint"
        ));
    }
    Ok((targets, menu))
}

/// `edd sweep`: multi-target co-search — one shared supernet weight phase
/// amortized over all targets, per-target architecture states descended in
/// parallel, per-target Pareto fronts over
/// `(val acc, ms/frame, DSPs)`. Writes one derived-architecture JSON per
/// target plus a cross-target Pareto summary.
fn cmd_sweep(args: &Args) -> Result<(), String> {
    let spec = args.get_str("targets", "gpu,fpga-recursive,fpga-pipelined");
    let (targets, menu) = parse_sweep_targets(&spec)?;
    let blocks = args.get_usize("blocks", 4)?;
    let classes = args.get_usize("classes", 6)?;
    let epochs = args.get_usize("epochs", 8)?;
    let seed = args.get_usize("seed", 42)? as u64;
    let stop_after = args.get_usize("stop-after", 0)?;
    let out_prefix = args.get_str("out-prefix", "edd_sweep");
    let ckpt_dir = args.flags.get("checkpoint-dir").cloned();
    let ckpt_every = args.get_usize("checkpoint-every", 1)?;
    let ckpt_keep = args.get_usize("checkpoint-keep", 3)?;
    let resume = args.flags.get("resume").cloned();
    let tracing = install_trace_sink(args)?;

    let space = SearchSpace::tiny(blocks, 16, classes, menu.clone());
    println!(
        "sweeping {} target(s) [{}] over {} blocks x {} ops x quantizations {:?} ({} epochs)...",
        targets.len(),
        targets
            .iter()
            .map(DeviceTarget::key)
            .collect::<Vec<_>>()
            .join(", "),
        space.num_blocks(),
        space.num_ops(),
        menu,
        epochs
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let config = CoSearchConfig {
        epochs,
        warmup_epochs: (epochs / 5).max(1),
        ..CoSearchConfig::default()
    };
    let data = SynthDataset::new(SynthConfig {
        num_classes: classes,
        image_size: 16,
        ..SynthConfig::default()
    });
    let train = data.split(6, 16, 1);
    let val = data.split(3, 16, 2);
    let mut sweep =
        SweepSearch::new(space, targets, config, &mut rng).map_err(|e| e.to_string())?;
    if let Some(dir) = &ckpt_dir {
        sweep
            .checkpoint_into(dir)
            .checkpoint_every(ckpt_every)
            .checkpoint_keep(ckpt_keep);
        println!("checkpointing into {dir} (every {ckpt_every} epoch(s), keep {ckpt_keep})");
    }
    if let Some(path) = &resume {
        sweep
            .resume_from(std::path::Path::new(path))
            .map_err(|e| e.to_string())?;
        println!("resuming from {path}");
    }
    let outcome = if stop_after > 0 {
        sweep.run_until(&train, &val, &mut rng, stop_after)
    } else {
        sweep.run(&train, &val, &mut rng)
    }
    .map_err(|e| e.to_string())?;
    if tracing {
        edd::runtime::telemetry::global().flush();
    }

    for t in &outcome.targets {
        println!("\n== {} ==", t.target.label());
        for h in &t.outcome.history {
            println!(
                "  epoch {:>2}: train acc {:.2}, val acc {:.2}, E[perf] {:.4}, E[res] {:.0}",
                h.epoch, h.train_acc, h.val_acc, h.expected_perf, h.expected_res
            );
        }
        println!("  Pareto front ({} point(s)):", t.front.len());
        for p in &t.front {
            println!(
                "    epoch {:>2}: val acc {:.2}, {:.3} ms/frame, {:.0} DSPs",
                p.epoch, p.val_acc, p.perf_ms, p.resource
            );
        }
        let json = t.outcome.derived.to_json().map_err(|e| e.to_string())?;
        let path = format!("{out_prefix}-{}.json", t.target.key());
        std::fs::write(&path, &json).map_err(|e| format!("writing {path}: {e}"))?;
        println!("  wrote {path} ({} bytes)", json.len());
    }
    let summary = outcome.summary_json();
    let summary_path = format!("{out_prefix}-pareto.json");
    std::fs::write(&summary_path, &summary).map_err(|e| format!("writing {summary_path}: {e}"))?;
    println!("\nwrote {summary_path} ({} bytes)", summary.len());
    Ok(())
}

fn cmd_eval(args: &Args) -> Result<(), String> {
    let path = args
        .flags
        .get("arch")
        .ok_or("eval requires --arch <file.json>")?;
    let json = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let arch = DerivedArch::from_json(&json).map_err(|e| format!("parsing {path}: {e}"))?;
    println!("{}", arch.summary());
    let net = arch.to_network_shape();
    println!(
        "work: {:.1} MMACs, params: {:.2} M, compute layers: {}",
        net.total_work() / 1e6,
        net.total_params() / 1e6,
        net.total_compute_layers()
    );

    let rtx = GpuDevice::titan_rtx();
    for p in GpuPrecision::all() {
        let r = eval_gpu(&net, p, &rtx);
        println!("GPU ({}) @ {:?}: {:.3} ms", rtx.name, p, r.latency_ms);
    }
    let zcu = FpgaDevice::zcu102();
    let rec =
        eval_recursive(&net, &tune_recursive(&net, 16, &zcu), &zcu).map_err(|e| e.to_string())?;
    println!(
        "FPGA recursive ({}) @16b: {:.3} ms, {:.0} DSPs",
        zcu.name, rec.latency_ms, rec.dsps
    );
    let zc7 = FpgaDevice::zc706();
    let pipe =
        eval_pipelined(&net, &tune_pipelined(&net, 16, &zc7), &zc7).map_err(|e| e.to_string())?;
    println!(
        "FPGA pipelined ({}) @16b: {:.1} fps, {:.0} DSPs",
        zc7.name, pipe.throughput_fps, pipe.dsps
    );
    Ok(())
}

/// Loads `--arch FILE`, falling back to the built-in tiny architecture.
fn load_arch(args: &Args) -> Result<DerivedArch, String> {
    match args.flags.get("arch") {
        Some(path) => {
            let json = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            DerivedArch::from_json(&json).map_err(|e| format!("parsing {path}: {e}"))
        }
        None => Ok(edd::zoo::tiny_derived_arch()),
    }
}

/// Briefly QAT-trains `arch` on SynthImageNet and calibrates activation
/// scales: the shared front half of `qinfer` and `compile`.
fn train_and_calibrate(
    arch: &DerivedArch,
    batch: usize,
    batches: usize,
    epochs: usize,
    seed: u64,
) -> Result<(QatModel, Calibration), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let model = QatModel::new(arch, &mut rng);
    let data = SynthDataset::new(SynthConfig {
        num_classes: arch.space.num_classes,
        image_size: arch.space.image_size,
        ..SynthConfig::default()
    });
    let train = data.split(batches, batch, 1);
    let mut opt = edd::tensor::optim::Sgd::new(model.parameters(), 0.05, 0.9, 1e-4);
    for epoch in 0..epochs {
        let stats = edd::nn::train_epoch(&model, &mut opt, &train).map_err(|e| e.to_string())?;
        println!(
            "qat epoch {epoch}: loss {:.3}, top1 {:.2}",
            stats.loss, stats.top1
        );
    }
    model.set_training(false);
    let calib_data: Vec<_> = train.iter().map(|b| b.images.clone()).collect();
    let calib = calibrate(&model, &calib_data).map_err(|e| e.to_string())?;
    Ok((model, calib))
}

/// Serves every test batch through `server`, reporting top-1 accuracy and
/// measured throughput.
fn report_served_accuracy(
    server: &InferServer<CompiledModel>,
    test: &[edd::nn::Batch],
) -> Result<(), String> {
    let mut correct = 0usize;
    let mut total = 0usize;
    for b in test {
        let n = b.labels.len();
        let logits = server
            .infer(b.images.data(), n)
            .map_err(|e| e.to_string())?;
        let classes = logits.len() / n;
        for i in 0..n {
            let row = &logits[i * classes..(i + 1) * classes];
            let arg = (0..classes).fold(0, |best, j| if row[j] > row[best] { j } else { best });
            correct += usize::from(arg == b.labels[i]);
            total += 1;
        }
    }
    let stats = server.stats();
    println!(
        "served {} requests / {} images entirely in integer arithmetic: \
         top1 {:.2}, mean latency {:.1} µs, {:.0} images/s",
        stats.requests,
        stats.images,
        correct as f64 / total.max(1) as f64,
        stats.mean_latency_us(),
        stats.images_per_sec()
    );
    Ok(())
}

/// `edd compile`: QAT-train + calibrate an architecture, lower it through
/// the `edd-ir` pass pipeline (`--passes all|none|name,…`) and write the
/// optimized quantized graph as a hot-loadable `.eddm` artifact.
fn cmd_compile(args: &Args) -> Result<(), String> {
    let batch = args.get_usize("batch", 8)?;
    let batches = args.get_usize("batches", 4)?;
    let epochs = args.get_usize("qat-epochs", 2)?;
    let seed = args.get_usize("seed", 42)? as u64;
    let cfg = parse_passes(&args.get_str("passes", "all"))?;
    let arch = load_arch(args)?;
    let out = args.get_str("out", &format!("{}.{}", arch.name, artifact::ARTIFACT_EXT));
    println!("{}", arch.summary());

    let (model, calib) = train_and_calibrate(&arch, batch, batches, epochs, seed)?;
    let float_graph = lower_to_graph(&model, &arch, &calib).map_err(|e| e.to_string())?;
    let (lowered, report) = edd::ir::lower(&float_graph, &cfg).map_err(|e| e.to_string())?;
    // Prove the graph is executable before anything touches the disk.
    let compiled = CompiledModel::from_graph(lowered).map_err(|e| e.to_string())?;
    println!(
        "\nlowered {} float nodes -> {} quantized nodes \
         ({} BN folded, {} ReLU6 fused, {} 1x1 im2col bypassed, {} dead removed)",
        float_graph.len(),
        compiled.graph().len(),
        report.bn_folded,
        report.relu6_fused,
        report.bypassed_1x1,
        report.dce_removed
    );
    let path = std::path::Path::new(&out);
    artifact::save(path, compiled.graph()).map_err(|e| format!("writing {out}: {e}"))?;
    let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    println!("wrote {out} ({bytes} bytes)");
    Ok(())
}

/// `edd qinfer --artifact`: hot-load a compiled `.eddm` artifact and serve
/// SynthImageNet batches through it — no QAT, no calibration, the graph on
/// disk is the whole model.
fn qinfer_artifact(path: &str, batch: usize, batches: usize) -> Result<(), String> {
    let model =
        artifact::load(std::path::Path::new(path)).map_err(|e| format!("loading {path}: {e}"))?;
    let meta = &model.graph().meta;
    println!(
        "hot-loaded {path}: model `{}`, input {:?}, {} classes, {} nodes",
        meta.name,
        meta.input_shape,
        meta.num_classes,
        model.graph().len()
    );
    let data = SynthDataset::new(SynthConfig {
        num_classes: meta.num_classes,
        image_size: meta.input_shape[1],
        ..SynthConfig::default()
    });
    let test = data.split(batches.max(1), batch, 2);
    let server = InferServer::new(model);
    report_served_accuracy(&server, &test)
}

/// `edd qinfer`: compile a derived architecture into the true integer
/// inference engine and serve batches through it — briefly QAT-trains the
/// network on SynthImageNet, calibrates activation scales, compiles to
/// int8/int4 weights with fixed-point requantization, and reports measured
/// throughput next to the Stage-1 `Perf^q` prediction. With `--artifact`
/// the engine is hot-loaded from a compiled `.eddm` file instead.
fn cmd_qinfer(args: &Args) -> Result<(), String> {
    let batch = args.get_usize("batch", 8)?;
    let batches = args.get_usize("batches", 4)?;
    let epochs = args.get_usize("qat-epochs", 2)?;
    let seed = args.get_usize("seed", 42)? as u64;
    if let Some(path) = args.flags.get("artifact") {
        return qinfer_artifact(path, batch, batches);
    }
    let arch = load_arch(args)?;
    println!("{}", arch.summary());

    let (model, calib) = train_and_calibrate(&arch, batch, batches, epochs, seed)?;
    let data = SynthDataset::new(SynthConfig {
        num_classes: arch.space.num_classes,
        image_size: arch.space.image_size,
        ..SynthConfig::default()
    });
    let test = data.split(batches.max(1), batch, 2);
    let graph = lower_to_graph(&model, &arch, &calib).map_err(|e| e.to_string())?;
    let (q, _) = edd::ir::compile(&graph, &PassConfig::all()).map_err(|e| e.to_string())?;
    let block_bits: Vec<u32> = arch
        .blocks
        .iter()
        .map(|b| b.quant_bits.min(ENGINE_MAX_BITS))
        .collect();
    println!(
        "\ncompiled integer engine: block bits {block_bits:?}, {} weight bytes, \
         input scale {:.5}",
        q.graph().weight_bytes(),
        calib.input
    );

    let server = InferServer::new(q);
    report_served_accuracy(&server, &test)?;

    let device = AccelDevice::loom_like();
    let net = arch.to_network_shape();
    let mut q_per_op = vec![8u32; net.ops.len()];
    q_per_op[1..=block_bits.len()].copy_from_slice(&block_bits);
    println!(
        "Stage-1 Perf^q prediction on {}: {:.0} images/s at Φ = {:?} \
         (ratios, not absolutes, are the comparable quantity — see EXPERIMENTS.md)",
        device.name,
        predicted_throughput_fps(&net, &q_per_op, &device),
        block_bits
    );
    Ok(())
}

/// The back half of `edd serve`: starts the dynamic-batching server over
/// `zoo`, drives the closed-loop synthetic workload, and reports per-model
/// stats.
fn drive_server(
    zoo: Vec<(String, Arc<CompiledModel>)>,
    config: edd::runtime::ServeConfig,
    requests: usize,
    producers: usize,
    window: usize,
    seed: u64,
) -> Result<(), String> {
    let models = zoo.len();
    let image_len = edd::runtime::BatchModel::image_len(zoo[0].1.as_ref());
    println!(
        "serving with max_batch {}, max_delay {} µs, queue depth {}, {} shard(s)/model; \
         {producers} producer(s) x {requests} request(s), window {window}\n",
        config.batcher.max_batch,
        config.batcher.max_delay_us,
        config.batcher.queue_depth,
        config.shards
    );

    let server = edd::runtime::Server::start(zoo, config);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC0FFEE);
    let pool: Vec<Vec<f32>> = (0..8)
        .map(|_| {
            edd::tensor::Array::randn(&[1, image_len], 1.0, &mut rng)
                .data()
                .to_vec()
        })
        .collect();
    std::thread::scope(|scope| {
        for p in 0..producers {
            let server = &server;
            let pool = &pool;
            scope.spawn(move || {
                let mut inflight = std::collections::VecDeque::new();
                for i in 0..requests {
                    let img = pool[(p * 5 + i) % pool.len()].clone();
                    match server.submit((p + i) % models, img) {
                        Ok(t) => inflight.push_back(t),
                        Err(e) => eprintln!("producer {p}: request {i} rejected: {e}"),
                    }
                    if inflight.len() >= window {
                        if let Err(e) = inflight.pop_front().expect("nonempty").wait() {
                            eprintln!("producer {p}: request failed: {e}");
                        }
                    }
                }
                for t in inflight {
                    if let Err(e) = t.wait() {
                        eprintln!("producer {p}: request failed: {e}");
                    }
                }
            });
        }
    });
    let stats = server.shutdown();
    println!(
        "{:<22} {:>9} {:>9} {:>8} {:>8} {:>8} {:>7}",
        "model", "completed", "rejected", "p50us", "p95us", "p99us", "occup"
    );
    for s in &stats {
        println!(
            "{:<22} {:>9} {:>9} {:>8} {:>8} {:>8} {:>7.2}",
            s.name,
            s.completed,
            s.rejected_full + s.rejected_shutdown,
            s.latency.p50_us,
            s.latency.p95_us,
            s.latency.p99_us,
            s.mean_occupancy(),
        );
    }
    let completed: u64 = stats.iter().map(|s| s.completed).sum();
    let failed: u64 = stats.iter().map(|s| s.failed).sum();
    println!("\n{completed} request(s) completed, {failed} failed");
    if failed > 0 {
        return Err(format!("{failed} request(s) failed"));
    }
    Ok(())
}

/// `edd serve`: compile the tiny model zoo into integer engines — or
/// hot-load compiled `.eddm` artifacts via `--artifacts a.eddm,b.eddm` —
/// and drive the multi-tenant dynamic-batching server with a closed-loop
/// synthetic workload: several producer threads, each keeping a bounded
/// window of in-flight requests spread round-robin across the models.
/// Reports per-model completion counts, batch occupancy, and latency
/// percentiles.
fn cmd_serve(args: &Args) -> Result<(), String> {
    let requests = args.get_usize("requests", 600)?;
    let producers = args.get_usize("producers", 2)?.max(1);
    let window = args.get_usize("window", 16)?.max(1);
    let seed = args.get_usize("seed", 42)? as u64;
    let config = edd::runtime::ServeConfig {
        batcher: edd::runtime::BatcherConfig {
            max_batch: args.get_usize("max-batch", 16)?,
            max_delay_us: args.get_usize("max-delay-us", 500)? as u64,
            queue_depth: args.get_usize("queue-depth", 1024)?,
        },
        shards: args.get_usize("shards", 1)?,
    };

    let mut zoo: Vec<(String, Arc<CompiledModel>)> = Vec::new();
    if let Some(list) = args.flags.get("artifacts") {
        for path in list.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            let model = artifact::load(std::path::Path::new(path))
                .map_err(|e| format!("loading {path}: {e}"))?;
            println!(
                "hot-loaded {path}: model `{}`, {} nodes",
                model.name(),
                model.graph().len()
            );
            zoo.push((model.name().to_owned(), Arc::new(model)));
        }
        if zoo.is_empty() {
            return Err("serve --artifacts: no artifact paths given".into());
        }
    } else {
        let models = args.get_usize("models", 3)?.clamp(1, 3);
        println!("compiling {models} tiny-zoo integer engine(s)...");
        for (name, q, _) in edd::zoo::compile_tiny_zoo(seed, &PassConfig::all())
            .into_iter()
            .take(models)
        {
            println!(
                "  {name}: {} nodes, {} weight bytes",
                q.graph().len(),
                q.graph().weight_bytes()
            );
            zoo.push((name, Arc::new(q)));
        }
    }
    drive_server(zoo, config, requests, producers, window, seed)
}

/// `edd stream`: pulsed streaming inference — convert an integer engine
/// (compiled from an architecture, or hot-loaded from a `.eddm` artifact
/// via `--artifact`) into a [`edd::ir::PulsedModel`], then classify a
/// deterministic synthetic long signal one row-slice at a time through
/// sliding windows. Carried state is bounded by the window geometry, never
/// by the stream length; `--verify` re-runs every emitted window through
/// the batch engine and checks the logits are bitwise identical.
fn cmd_stream(args: &Args) -> Result<(), String> {
    let rows = args.get_usize("rows", 96)?;
    let seed = args.get_usize("seed", 42)? as u64;
    let batch = args.get_usize("batch", 8)?;
    let batches = args.get_usize("batches", 4)?;
    let epochs = args.get_usize("qat-epochs", 2)?;
    let verify = args.flags.contains_key("verify");
    let tracing = install_trace_sink(args)?;

    // Resolve the batch engine: hot-load an artifact, or QAT-train an
    // architecture and compile it through the IR pipeline.
    let oracle: CompiledModel = if let Some(path) = args.flags.get("artifact") {
        let model = artifact::load(std::path::Path::new(path))
            .map_err(|e| format!("loading {path}: {e}"))?;
        println!(
            "hot-loaded {path}: model `{}`, {} nodes",
            model.name(),
            model.graph().len()
        );
        model
    } else {
        let arch = load_arch(args)?;
        println!("{}", arch.summary());
        let (model, calib) = train_and_calibrate(&arch, batch, batches, epochs, seed)?;
        let graph = lower_to_graph(&model, &arch, &calib).map_err(|e| e.to_string())?;
        edd::ir::compile(&graph, &PassConfig::all())
            .map_err(|e| e.to_string())?
            .0
    };
    let meta = oracle.graph().meta.clone();
    let (channels, window, width) = (
        meta.input_shape[0],
        meta.input_shape[1],
        meta.input_shape[2],
    );
    let hop = args.get_usize("hop", (window / 2).max(1))?.max(1);
    if rows < window {
        return Err(format!(
            "--rows {rows} is shorter than the {window}-row window; no window can complete"
        ));
    }

    use edd::runtime::StreamModel as _;
    let pulsed =
        edd::ir::PulsedModel::from_graph(oracle.graph(), hop).map_err(|e| e.to_string())?;
    println!(
        "\npulsed `{}`: {} floats/slice, window {window} rows, hop {hop}, \
         delay {} rows, {} classes",
        meta.name,
        pulsed.slice_len(),
        pulsed.delay_rows(),
        pulsed.num_classes()
    );

    let signal = edd::zoo::synthetic_signal(channels, width, rows, seed);
    let mut session = edd::runtime::StreamSession::new(pulsed);
    let mut windows = Vec::new();
    for row in &signal {
        if let Some(w) = session.push(row).map_err(|e| e.to_string())? {
            windows.push(w);
        }
    }
    let stats = session.stats();

    let shown = windows.len().min(10);
    for w in &windows[..shown] {
        println!(
            "  window {:>3} (rows {:>4}..{:>4}): class {}",
            w.index,
            w.start_row,
            w.start_row + window as u64,
            w.argmax()
        );
    }
    if windows.len() > shown {
        println!("  ... {} more window(s)", windows.len() - shown);
    }
    let mut hist = vec![0usize; meta.num_classes];
    for w in &windows {
        hist[w.argmax().min(meta.num_classes - 1)] += 1;
    }
    println!(
        "classified {} window(s) from {} pushed slice(s); class histogram {hist:?}",
        stats.windows, stats.pushes
    );
    println!(
        "peak carried state {} bytes — bounded by the window geometry, \
         independent of the {rows}-row stream",
        stats.peak_state_bytes
    );

    if verify {
        for w in &windows {
            let win =
                edd::zoo::signal_window(&signal, w.start_row as usize, window, channels, width);
            let x = edd::tensor::Array::from_vec(win, &[1, channels, window, width])
                .map_err(|e| e.to_string())?;
            let want = oracle.forward(&x).map_err(|e| e.to_string())?;
            let same = want.data().len() == w.logits.len()
                && want
                    .data()
                    .iter()
                    .zip(&w.logits)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
            if !same {
                return Err(format!(
                    "window {} diverged from the batch engine on identical rows",
                    w.index
                ));
            }
        }
        println!(
            "verified: all {} window(s) bitwise-equal to the batch engine",
            windows.len()
        );
    }
    if tracing {
        edd::runtime::telemetry::global().flush();
    }
    Ok(())
}

fn cmd_zoo() {
    let nets = [
        edd::zoo::googlenet(),
        edd::zoo::mobilenet_v2(),
        edd::zoo::shufflenet_v2(),
        edd::zoo::resnet18(),
        edd::zoo::vgg16(),
        edd::zoo::mnasnet_a1(),
        edd::zoo::fbnet_c(),
        edd::zoo::proxyless_cpu(),
        edd::zoo::proxyless_mobile(),
        edd::zoo::proxyless_gpu(),
        edd::zoo::edd_net_1(),
        edd::zoo::edd_net_2(),
        edd::zoo::edd_net_3(),
    ];
    let rtx = GpuDevice::titan_rtx();
    let zcu = FpgaDevice::zcu102();
    println!(
        "{:<18} {:>9} {:>9} {:>11} {:>12}",
        "model", "MMACs", "Mparams", "GPU fp32", "ZCU102 16b"
    );
    for net in &nets {
        let gpu = eval_gpu(net, GpuPrecision::Fp32, &rtx).latency_ms;
        let rec = eval_recursive(net, &tune_recursive(net, 16, &zcu), &zcu)
            .expect("tuned")
            .latency_ms;
        println!(
            "{:<18} {:>9.0} {:>9.1} {:>9.2}ms {:>10.2}ms",
            net.name,
            net.total_work() / 1e6,
            net.total_params() / 1e6,
            gpu,
            rec
        );
    }
}

fn cmd_devices() {
    println!("GPUs:");
    for d in [
        GpuDevice::titan_rtx(),
        GpuDevice::gtx_1080_ti(),
        GpuDevice::p100(),
    ] {
        println!(
            "  {:<14} {:>5.1} fp32 TMAC/s, {:>5.0} GB/s, {:.2} ms/layer",
            d.name, d.peak_tmacs_fp32, d.mem_bw_gbs, d.per_layer_overhead_ms
        );
    }
    println!("FPGAs:");
    for d in [FpgaDevice::zcu102(), FpgaDevice::zc706()] {
        println!(
            "  {:<14} {:>5.0} DSPs @ {:.0} MHz (eff {:.2})",
            d.name, d.dsp_budget, d.clock_mhz, d.efficiency
        );
    }
    let a = AccelDevice::loom_like();
    println!("Dedicated:");
    println!(
        "  {:<14} {:>5.1} TMAC/s @16x16b, {}-bit activations",
        a.name,
        a.peak_macs_16x16 / 1e12,
        a.activation_bits
    );
}

const USAGE: &str = "usage: edd <search|sweep|eval|compile|qinfer|serve|stream|zoo|devices> [--flags]\n\
  search  --target gpu|fpga-recursive|fpga-pipelined|dedicated \\\n          --blocks N --classes C --epochs E --seed S --out FILE \\\n          --checkpoint-dir DIR --checkpoint-every N --checkpoint-keep K \\\n          --resume PATH --trace-out FILE.jsonl\n\
  sweep   --targets gpu,fpga-recursive,fpga-pipelined \\\n          --blocks N --classes C --epochs E --seed S --out-prefix P \\\n          --checkpoint-dir DIR --checkpoint-every N --checkpoint-keep K \\\n          --resume PATH --stop-after N --trace-out FILE.jsonl\n\
  eval    --arch FILE\n\
  compile --arch FILE --out FILE.eddm --passes all|none|name,... \\\n          --batch N --batches K --qat-epochs E --seed S\n\
  qinfer  --arch FILE | --artifact FILE.eddm \\\n          --batch N --batches K --qat-epochs E --seed S\n\
  serve   --models N | --artifacts a.eddm,b.eddm \\\n          --requests R --producers P --window W --shards S \\\n          --max-batch B --max-delay-us D --queue-depth Q --seed S\n\
  stream  --arch FILE | --artifact FILE.eddm \\\n          --rows N --hop H --verify --seed S \\\n          --batch N --batches K --qat-epochs E --trace-out FILE.jsonl\n\
  zoo\n\
  devices\n\
\n\
  --checkpoint-dir   write crash-safe snapshots into DIR after each qualifying\n\
                     epoch, named after the targets: ckpt-<target>-<epoch>.edds\n\
                     for search, ckpt-<t1>+<t2>+...-<epoch>.edds for sweep, so\n\
                     runs over different targets can share one directory\n\
  --checkpoint-every snapshot cadence in epochs (default 1; 0 = final only)\n\
  --checkpoint-keep  retain only the run's newest K snapshots (default 3)\n\
  --resume           continue bit-identically from a snapshot file, or from\n\
                     the run's newest snapshot in a checkpoint directory\n\
  --trace-out        stream structured telemetry (epoch metrics, phase\n\
                     timings, kernel counters) as JSON lines to FILE\n\
  --passes           IR optimization passes for compile: all (default),\n\
                     none, or a comma-list of bn-fold, relu6-fuse,\n\
                     bypass-1x1, dce\n\
\n\
  sweep co-searches one shared supernet for several device targets at\n\
  once: every weight step is shared (T-times amortization), the per-target\n\
  architecture steps run in parallel, and each target accumulates a Pareto\n\
  front over (val acc, ms/frame, DSPs). Writes one derived-arch JSON per\n\
  target (P-<target>.json) plus a cross-target summary (P-pareto.json);\n\
  one snapshot per epoch resumes the whole sweep bit-identically.\n\
\n\
  compile QAT-trains and calibrates an architecture, lowers it through\n\
  the edd-ir pass pipeline, and writes a CRC-checked .eddm artifact that\n\
  qinfer --artifact and serve --artifacts hot-load without retraining.\n\
\n\
  serve compiles up to 3 tiny-zoo integer engines (or hot-loads compiled\n\
  artifacts), serves them all from one multi-tenant dynamic-batching\n\
  server (bounded queues with backpressure, deadline-based batch\n\
  coalescing, per-model worker shards), drives a closed-loop synthetic\n\
  workload against it, and reports per-model latency percentiles and\n\
  batch occupancy\n\
\n\
  stream converts an integer engine (compiled from an architecture, or\n\
  hot-loaded from a .eddm artifact) into a pulsed model that consumes a\n\
  synthetic long signal one row-slice at a time, emitting a classification\n\
  per sliding window after an explicitly computed delay. Each conv keeps\n\
  only a small ring of rows, so carried state is bounded by the window\n\
  geometry and independent of the stream length; --verify re-runs every\n\
  window through the batch engine and checks the logits bitwise";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match args.command.as_str() {
        "search" => cmd_search(&args),
        "sweep" => cmd_sweep(&args),
        "eval" => cmd_eval(&args),
        "compile" => cmd_compile(&args),
        "qinfer" => cmd_qinfer(&args),
        "serve" => cmd_serve(&args),
        "stream" => cmd_stream(&args),
        "zoo" => {
            cmd_zoo();
            Ok(())
        }
        "devices" => {
            cmd_devices();
            Ok(())
        }
        "" | "help" | "--help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|v| (*v).to_string()).collect()
    }

    #[test]
    fn parse_basic_flags() {
        let a = parse_args(&argv(&["search", "--blocks", "5", "--quick"])).unwrap();
        assert_eq!(a.command, "search");
        assert_eq!(a.get_usize("blocks", 0).unwrap(), 5);
        assert_eq!(a.get_str("quick", "false"), "true");
        assert_eq!(a.get_usize("missing", 7).unwrap(), 7);
    }

    #[test]
    fn parse_rejects_positional() {
        assert!(parse_args(&argv(&["search", "oops"])).is_err());
    }

    #[test]
    fn parse_rejects_bad_number() {
        let a = parse_args(&argv(&["search", "--blocks", "many"])).unwrap();
        assert!(a.get_usize("blocks", 0).is_err());
    }

    #[test]
    fn passes_spec_resolves() {
        assert_eq!(parse_passes("all").unwrap(), PassConfig::all());
        assert_eq!(parse_passes("none").unwrap(), PassConfig::none());
        let cfg = parse_passes("bn-fold, dce").unwrap();
        assert!(cfg.bn_fold && cfg.dce && !cfg.relu6_fuse && !cfg.bypass_1x1);
        let err = parse_passes("bn-fold,loop-unroll").unwrap_err();
        assert!(err.contains("loop-unroll"), "{err}");
        assert!(err.contains("bypass-1x1"), "{err}");
    }

    #[test]
    fn sweep_targets_intersect_quant_menus() {
        let (targets, menu) = parse_sweep_targets("gpu,fpga-recursive,fpga-pipelined").unwrap();
        assert_eq!(targets.len(), 3);
        // GPU supports {8,16,32}; both FPGA flavors {4,8,16} -> {8,16}.
        assert_eq!(menu, vec![8, 16]);
        let (one, menu1) = parse_sweep_targets("dedicated").unwrap();
        assert_eq!(one.len(), 1);
        assert_eq!(menu1, one[0].default_quant_bits());
        assert!(parse_sweep_targets("").is_err());
        assert!(parse_sweep_targets("gpu,tpu").is_err());
    }

    #[test]
    fn target_names_resolve() {
        assert!(parse_target("gpu").is_ok());
        assert!(parse_target("fpga-recursive").is_ok());
        assert!(parse_target("fpga-pipelined").is_ok());
        assert!(parse_target("dedicated").is_ok());
        assert!(parse_target("tpu").is_err());
    }
}
