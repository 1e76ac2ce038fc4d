"""Workloads, timed phases, correctness checks and metrics of the benchmark.

Every workload runs the same closed-loop session in one process with one
caller: set-up, then the phases train, ckpt, eval_b1, eval_b4 and evaluate,
interleaved, each given a share of ``--seconds`` and a minimum operation
count. The workloads differ in the model variant, so each emits every
end-to-end metric while loading different layers.
"""

from __future__ import annotations

import ctypes
import dataclasses
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from rdteunet import datasynth, metrics, model, tensor

import layertrace

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUN_PY = os.path.join(BENCH_DIR, "run.py")
with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)
# metric name -> unit, as BENCHMARK.json lists them
UNITS = {m["name"]: m["unit"] for part in ("end_to_end", "per_layer") for m in SPEC[part]}

# share of --seconds each phase runs for; it also runs at least `min_ops` times.
# eval_b1 runs a fixed count instead, so its tail is always the same percentile.
SHARES = {"train": 0.46, "ckpt": 0.18, "eval_b1": 0.0, "eval_b4": 0.12, "evaluate": 0.12}

# the paper config, beside the workload's size and base width
NUM_CLASSES = 4
BATCH = 4
HELDOUT = 4
# images of one `metrics.evaluate` pass: HD95 costs |boundary|^2 per mask, and
# mask shapes vary by seed, so fewer images let the seed set the time
EVAL_IMAGES = 256
MODEL_SEED = 0
LR = 1e-3
MAX_GRAD_NORM = 1.0
# train steps timed untraced and traced in a --trace 1 run
TRACE_STEPS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    variant: str
    min_ops: dict = field(default_factory=lambda: {
        "train": 2, "ckpt": 3, "eval_b1": 40, "eval_b4": 3, "evaluate": 3})
    size: int = 64
    base_width: int = 16
    # train_loss_final is the loss of this step; the warm-up step is step 1
    loss_step: int = 3
    # set-ups in an untraced run, each the first of a fresh process
    setup_reps: int = 3


# Why these two (see perfbench/README.md for the layer -> metric map):
# train_full carries nearly all the cost (71M params, 48 stair convs, a
# 1836-entry tape); train_no_hvda runs the same session with stair convs and
# HVDA detail branches absent, so a stair-conv change must predict no change
# there, while ASBE, Euler fusion and ResBlocks take a larger share.
WORKLOADS = {
    "train_full": Workload("train_full", "full"),
    "train_no_hvda": Workload("train_no_hvda", "no_hvda"),
}


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it: (value, level)."""
    if len(values) < 11:
        raise ValueError(f"a tail needs at least 11 samples, got {len(values)}")
    ordered = sorted(values)
    return ordered[-11], (len(ordered) - 10) / len(ordered)


class Tally:
    """Operations attempted and failed, with the reason of each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


class Session:
    """One model with its data, optimizer and the operations the phases time."""

    def __init__(self, wl: Workload, seed: int, work_dir: str, tally: Tally, span):
        self.wl = wl
        self.tally = tally
        self.span = span
        self.ckpt_path = os.path.join(work_dir, f"ckpt-{wl.name}-{seed}-{os.getpid()}.rdtc")
        samples = datasynth.generate(datasynth.GenSpec(
            count=BATCH + HELDOUT, size=wl.size, num_classes=NUM_CLASSES, seed=seed))
        train, self.heldout = samples[:BATCH], samples[BATCH:]
        self.x = tensor.Tensor(np.stack([s.image.data for s in train]))
        self.y = np.stack([datasynth.mask_ids(s) for s in train])
        images = np.stack([s.image.data for s in self.heldout])
        self.b1 = [tensor.Tensor(images[i:i + 1]) for i in range(HELDOUT)]
        self.b4 = tensor.Tensor(images[:BATCH])
        self.model = model.RdteUnet(model.ModelConfig(
            h=wl.size, w=wl.size, num_classes=NUM_CLASSES, base_width=wl.base_width,
            variant=wl.variant, seed=MODEL_SEED))
        self.opt = model.Adam(self.model.store, lr=LR)
        self.losses: list[float] = []
        self.ckpt_bytes = 0
        self.n_b1 = 0
        self.eval_set = self.eval_logits = None

    def train_step(self) -> float:
        t0 = time.perf_counter()
        with self.span("bench.train_step"):
            with tensor.Tape() as tape:
                with self.span("model.step.forward"):
                    logits = self.model(self.x, training=True)
                    loss = model.segmentation_loss(logits, self.y)
                with self.span("model.step.backward"):
                    tensor.backward(tape, loss, self.model.store)
            with self.span("model.step.optimizer"):
                model.clip_grad_norm(self.model.store, MAX_GRAD_NORM)
                self.opt.step()
        dt = time.perf_counter() - t0
        value = loss.item()
        self.losses.append(value)
        self.tally.op(bool(np.isfinite(value)), f"train step {len(self.losses)}: loss {value}")
        return dt

    def _eval_forward(self, x) -> None:
        logits = self.model(x, training=False).data
        pred = np.argmax(logits, axis=-1)
        valid = (logits.shape == x.shape[:3] + (NUM_CLASSES,)
                 and bool(np.isfinite(logits).all())
                 and 0 <= pred.min() and pred.max() < NUM_CLASSES)
        self.tally.op(valid, f"eval forward at batch {x.shape[0]}: invalid predictions")

    def eval_b1(self) -> float:
        x = self.b1[self.n_b1 % len(self.b1)]
        self.n_b1 += 1
        t0 = time.perf_counter()
        self._eval_forward(x)
        return time.perf_counter() - t0

    def eval_b4(self) -> float:
        t0 = time.perf_counter()
        self._eval_forward(self.b4)
        return time.perf_counter() - t0

    def make_eval_set(self, seed: int) -> None:
        """EVAL_IMAGES images from the workload seed (the first ones are the
        train and held-out images), with a near-correct segmentation of each:
        its ground truth moved by (1, 2) pixels, as one-hot logits."""
        self.eval_set = datasynth.generate(datasynth.GenSpec(
            count=EVAL_IMAGES, size=self.wl.size, num_classes=NUM_CLASSES, seed=seed))
        masks = np.stack([datasynth.mask_ids(s) for s in self.eval_set])
        moved = np.roll(masks, (1, 2), axis=(1, 2))
        self.eval_logits = tensor.Tensor(np.eye(NUM_CLASSES, dtype=np.float32)[moved])

    def evaluate(self) -> float:
        """One `metrics.evaluate` pass over the eval set in one batch. Its
        forward returns the fixed logits, so only the DSC/HD95 code is timed."""
        logits = self.eval_logits
        t0 = time.perf_counter()
        report = metrics.evaluate(lambda x, training: logits, self.eval_set, NUM_CLASSES,
                                  EVAL_IMAGES)
        dt = time.perf_counter() - t0
        ok = all(0.0 <= r["dsc"] <= 1.0 and 0.0 <= r["hd95"] < np.inf
                 for r in report["per_class"])
        self.tally.op(ok, f"evaluate: out-of-range report {report}")
        return dt

    def ckpt(self) -> tuple[float, float]:
        """Save, release, load; the loaded model must give bit-equal logits.
        Training resumes on the loaded model with the optimizer's moments."""
        ref = self.model(self.b1[0], training=False).data.tobytes()
        t0 = time.perf_counter()
        model.save_checkpoint(self.model, self.ckpt_path)
        t_save = time.perf_counter() - t0
        self.ckpt_bytes = os.path.getsize(self.ckpt_path)
        self.model = self.opt.store = None  # nothing of the saved model stays alive
        t0 = time.perf_counter()
        self.model = model.load_checkpoint(self.ckpt_path)
        t_load = time.perf_counter() - t0
        os.remove(self.ckpt_path)
        self.opt.store = self.model.store
        same = self.model(self.b1[0], training=False).data.tobytes() == ref
        self.tally.op(same, "checkpoint round trip: loaded logits differ from saved model")
        return t_save, t_load


def _nospan(name):
    return nullcontext()


def _interleave(ops: dict, wl: Workload, seconds: float) -> dict:
    """Run the phases' operations interleaved, each time picking the phase
    furthest behind, until every phase has run for its share of `seconds`
    and at least its minimum count. Interleaving spreads every phase over
    the whole run, so a slow spell of the machine hits all metrics alike."""
    mins = dict(wl.min_ops, train=max(wl.min_ops["train"], wl.loss_step - 1))
    spent = dict.fromkeys(ops, 0.0)
    done = {p: [] for p in ops}

    def progress(p):
        budget = SHARES[p] * seconds
        by_time = spent[p] / budget if budget > 0 else float("inf")
        return min(len(done[p]) / mins[p], by_time)

    while True:
        p = min(ops, key=progress)
        if progress(p) >= 1:
            return done
        t0 = time.perf_counter()
        done[p].append(ops[p]())
        spent[p] += time.perf_counter() - t0


def environment(seed: int, wl: Workload) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "workload_seed": seed,
        "model_seed": MODEL_SEED,
        "variant": wl.variant,
        "config": f"{wl.size}x{wl.size} base_width {wl.base_width} batch {BATCH} "
                  f"classes {NUM_CLASSES} float32",
    }


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas*"))
    for path in libs:
        fn = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_usage() -> dict:
    """CPU seconds, page faults and context switches of this process so far."""
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return {"user_s": ru.ru_utime, "system_s": ru.ru_stime, "minor_faults": ru.ru_minflt,
            "major_faults": ru.ru_majflt, "involuntary_switches": ru.ru_nivcsw}


def setup(wl: Workload, seed: int, work_dir: str, tally: Tally, span,
          import_s: float) -> tuple[Session, float]:
    """Data, model, optimizer and the warm-up train step (step 1). Its time,
    plus the process's import time, is a cold set-up only as the first set-up
    of its process."""
    t0 = time.perf_counter()
    sess = Session(wl, seed, work_dir, tally, span)
    sess.train_step()
    return sess, import_s + time.perf_counter() - t0


def _child_setups(wl: Workload, seed: int, tally: Tally, n: int) -> list[float]:
    """Set-up times of `n` fresh processes, run one after the other."""
    cmd = [sys.executable, RUN_PY, "--workload", wl.name, "--seed", str(seed),
           "--seconds", "0", "--setup-only", json.dumps(dataclasses.asdict(wl))]
    times = []
    for _ in range(n):
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False,
                              timeout=120)
        lines = proc.stdout.strip().splitlines()
        res = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        tally.op(res is not None and not res["failures"],
                 f"set-up in a child process: exit {proc.returncode}, {res}")
        if res is not None:
            times.append(res["setup_s"])
    return times


def child_setup(wl: Workload, seed: int, work_dir: str, import_s: float) -> dict:
    """The whole of a child process started by `_child_setups`."""
    tally = Tally()
    _, setup_s = setup(wl, seed, work_dir, tally, _nospan, import_s)
    return {"setup_s": setup_s, "failures": tally.failures}


def _check_learning(sess: Session, tally: Tally) -> float:
    """Loss of the fixed step `loss_step`; it must be below the first step's."""
    final = sess.losses[sess.wl.loss_step - 1]
    tally.op(final < sess.losses[0],
             f"loss did not fall: step 1 {sess.losses[0]}, step {sess.wl.loss_step} {final}")
    return final


def _untraced(wl: Workload, seed: int, seconds: float, import_s: float, work_dir: str,
              tally: Tally) -> tuple[dict, dict]:
    bindings = layertrace.current_bindings()
    # the other set-ups run first, so no two models are alive at once
    child_times = _child_setups(wl, seed, tally, wl.setup_reps - 1)
    sess, own_setup = setup(wl, seed, work_dir, tally, _nospan, import_s)
    setup_times = [own_setup] + child_times
    sess.make_eval_set(seed)
    ops = {"train": sess.train_step, "ckpt": sess.ckpt, "eval_b1": sess.eval_b1,
           "eval_b4": sess.eval_b4, "evaluate": sess.evaluate}
    done = _interleave(ops, wl, seconds)
    steps, trips, b1, b4, ev = (done[p] for p in SHARES)
    loss_final = _check_learning(sess, tally)
    now = layertrace.current_bindings()
    tally.op(all(now.get(k) is v for k, v in bindings.items()),
             "a traced callable changed during the untraced run")
    b1_tail, tail_level = tail(b1)
    # Throughputs and the times of the few slow operations are means over the
    # run; the batch-1 latency is the fastest of its 40 samples. Over nine sets
    # of ten runs, these had the smallest run-to-run spread (perfbench/README.md).
    values = {
        "setup_s": statistics.median(setup_times),
        "train_samples_per_s": BATCH * len(steps) / sum(steps),
        "train_loss_final": loss_final,
        "eval_b1_min_ms": 1e3 * min(b1),
        "eval_b1_tail_ms": 1e3 * b1_tail,
        "eval_b4_samples_per_s": BATCH * len(b4) / sum(b4),
        "evaluate_s": statistics.mean(ev),
        "ckpt_save_s": statistics.mean(t[0] for t in trips),
        "ckpt_load_s": statistics.mean(t[1] for t in trips),
        "peak_rss_mb": peak_rss_mb(),
    }
    info = {
        "samples": {"setup": len(setup_times), "train_steps": len(steps),
                    "ckpt_round_trips": len(trips), "eval_b1": len(b1), "eval_b4": len(b4),
                    "evaluate": len(ev)},
        "eval_b1_p50_ms": 1e3 * statistics.median(b1),
        "eval_b1_tail_percentile": round(100 * tail_level, 2),
        "losses": sess.losses,
        "checkpoint_mb": sess.ckpt_bytes / 2 ** 20,
        "import_s": import_s,
        "times_s": {"setup": setup_times, "train": steps, "ckpt": trips, "eval_b1": b1,
                    "eval_b4": b4, "evaluate": ev},
    }
    return values, info


def _traced(wl: Workload, seed: int, import_s: float, work_dir: str, tally: Tally,
            spans_path: str | None) -> tuple[dict, dict]:
    """One traced pass over the phases, with untraced train steps beside it
    for the overhead ratio; end-to-end numbers never come from here."""
    tr = layertrace.Tracer()
    with tr.active():
        sess, _ = setup(wl, seed, work_dir, tally, tr.span, import_s)
    tally.op(tr.restored(), "tracer left a wrapped callable in place")
    sess.make_eval_set(seed)
    sess.span = _nospan
    untraced = [sess.train_step() for _ in range(TRACE_STEPS)]
    sess.span = tr.span
    with tr.active():
        tr.phase = "train"
        traced = [sess.train_step() for _ in range(TRACE_STEPS)]
        # the last traced step is the one the coverage check reads
        last_step = max(i for i, s in enumerate(tr.spans) if s[0] == "bench.train_step")
        steps_end = len(tr.spans)
        tr.phase = "ckpt"
        sess.ckpt()
        tr.phase = "evaluate"
        sess.evaluate()
    tally.op(tr.restored(), "tracer left a wrapped callable in place")
    _check_learning(sess, tally)
    coverage = tr.coverage(last_step, steps_end)
    tally.op(abs(coverage - 1.0) <= layertrace.COVERAGE_TOLERANCE,
             f"self-time coverage {coverage:.3f} of a traced train step")
    values = tr.layer_metrics({"train": TRACE_STEPS, "ckpt": 1, "evaluate": 1, "setup": 1})
    values["model.params"] = sess.model.n_parameters()
    values["model.checkpoint.mb"] = sess.ckpt_bytes / 2 ** 20
    values["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced)
    values["trace.coverage_frac"] = coverage
    if spans_path is not None:
        tr.write(spans_path)
    info = {"traced_step_s": traced, "untraced_step_s": untraced, "spans": len(tr.spans),
            "spans_file": spans_path}
    return values, info


def run(wl: Workload, seed: int, seconds: float, trace: bool, import_s: float,
        work_dir: str, spans_path: str | None = None) -> dict:
    """Run one workload; the result's `info` holds the environment and details."""
    os.makedirs(work_dir, exist_ok=True)
    tally = Tally()
    out, info = {}, {}
    try:
        if trace:
            values, info = _traced(wl, seed, import_s, work_dir, tally, spans_path)
        else:
            values, info = _untraced(wl, seed, seconds, import_s, work_dir, tally)
        # a metric that BENCHMARK.json does not list raises KeyError here
        out = {k: {"value": float(v), "unit": UNITS[k]} for k, v in values.items()}
    except Exception:  # the run's boundary: a raised error is a failed operation
        traceback.print_exc()
        tally.op(False, traceback.format_exc(limit=-1).strip())
    info.update(workload=wl.name, environment=environment(seed, wl), usage=process_usage(),
                error_rate=len(tally.failures) / tally.attempted,
                failures=tally.failures[:20])
    return {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": out,
        "info": info,
    }
