"""Shared plumbing: paths, work directories, server subprocesses, CLI
calls, statistics and the seeded model inputs every workload builds on.

Everything the benchmark writes lands under ``benchmarks/perf/out/``
(ignored by git); nothing outside the checkout is touched — subprocesses
get ``TMPDIR`` pointed at the run's work directory as well.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

PERF_DIR = Path(__file__).resolve().parent
REPO_ROOT = PERF_DIR.parent.parent
SRC_DIR = REPO_ROOT / "src"
OUT_DIR = PERF_DIR / "out"

#: Fraction of each weight matrix a family member / lineage step
#: perturbs — the ``bench_dedup`` sparse fine-tune recipe.
PERTURB_FRAC = 0.03


def require_program() -> None:
    """Fail (non-zero, no result line) when the program is not there."""
    if not (SRC_DIR / "repro" / "dlv" / "cli.py").is_file():
        print(f"benchmarks/perf: no program under {SRC_DIR}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))


def child_env(workdir: Path) -> dict:
    """Environment for every subprocess: one BLAS thread, program on the
    import path, temp files inside the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR)
    env["OMP_NUM_THREADS"] = env["OPENBLAS_NUM_THREADS"] = "1"
    env["TMPDIR"] = str(workdir)
    env.pop("DLV_STORE", None)
    return env


@contextlib.contextmanager
def work_dir(tag: str):
    """A fresh scratch directory under ``out/``, removed on exit."""
    path = OUT_DIR / f"work-{tag}-{os.getpid()}-{time.monotonic_ns()}"
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def op_marker(tracer):
    """``op(kind)`` context managers: root spans naming an end-to-end
    operation in a traced pass, nothing in an untraced one."""
    return tracer.op if tracer is not None else contextlib.nullcontext


# -- statistics ---------------------------------------------------------------


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``pct``
    percent of the sample at or below it (the maximum when n < 100/(100-pct))."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def fastest_quarter(values) -> list:
    """The smallest quarter of ``values`` (at least one), ascending."""
    ordered = sorted(values)
    return ordered[:max(1, math.ceil(len(ordered) / 4))]


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, the steadiness figure the driver computes."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else 0.0


def summarize(values) -> dict:
    """n, median, quartiles and spread of one metric's samples."""
    values = [float(v) for v in values]
    if len(values) >= 2:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0] if values else 0.0
    return {
        "n": len(values),
        "median": median(values),
        "q1": q1,
        "q3": q3,
        "spread": quartile_spread(values),
    }


# -- the CLI as users reach it ------------------------------------------------


class OpFailed(RuntimeError):
    """A CLI verb exited non-zero."""


def dlv(*argv: str) -> tuple[float, object]:
    """Run one ``dlv`` verb in-process; returns (wall seconds, parsed JSON).

    ``cli.main`` is looked up at call time so a traced pass sees the
    wrapped entry point.
    """
    from repro.dlv import cli

    buffer = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(list(argv))
    elapsed = time.perf_counter() - start
    if code != 0:
        raise OpFailed(f"dlv {' '.join(argv)} exited {code}")
    text = buffer.getvalue().strip()
    return elapsed, (json.loads(text) if text else None)


def dlv_cold(workdir: Path, *argv: str) -> float:
    """One fresh-interpreter ``python -m repro.dlv.cli ...``; wall seconds."""
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "repro.dlv.cli", *argv],
        env=child_env(workdir),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        timeout=60,
    )
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        raise OpFailed(done.stderr.decode(errors="replace")[-500:])
    return elapsed


def import_seconds(workdir: Path) -> float:
    """What a fresh interpreter pays to import numpy and the CLI's
    closure, on its own clock."""
    done = subprocess.run(
        [sys.executable, "-c",
         "import time; t = time.perf_counter(); import numpy, repro.dlv.cli; "
         "print(time.perf_counter() - t)"],
        env=child_env(workdir), capture_output=True, text=True, timeout=60,
        check=True,
    )
    return float(done.stdout)


class Server:
    """One ``dlv serve`` / ``dlv hub-serve`` subprocess.

    Boot reads the start-up JSON until its closing ``}`` (the CLI prints
    it with ``indent=2``, not on one line), then polls the health
    endpoint.  :meth:`stop` sends SIGTERM and, for ``serve``, requires
    the shutdown report to say ``"drained": true``.

    With ``spans_path`` the process is started through
    ``traced_main.py``, which installs the span shim before delegating
    to ``cli.main`` and writes its spans there on exit.
    """

    def __init__(
        self,
        workdir: Path,
        cli_args: list[str],
        spans_path: Optional[Path] = None,
    ) -> None:
        if spans_path is not None:
            argv = [sys.executable, str(PERF_DIR / "traced_main.py"),
                    str(spans_path), *cli_args]
        else:
            argv = [sys.executable, "-m", "repro.dlv.cli", *cli_args]
        self._stderr = open(workdir / f"server-{time.monotonic_ns()}.err", "wb")
        self.started_at = time.perf_counter()
        self.proc = subprocess.Popen(
            argv,
            env=child_env(workdir),
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            text=True,
        )
        self.info: dict = {}
        self.boot_s = 0.0

    def wait_ready(self, health) -> dict:
        """Parse the boot JSON, then call ``health(info)`` until it answers."""
        lines = []
        while True:
            line = self.proc.stdout.readline()
            if not line:
                self.kill()
                raise RuntimeError(
                    "server exited during boot: " + self._stderr_tail()
                )
            lines.append(line)
            if line.rstrip() == "}":
                break
        self.info = json.loads("".join(lines))
        deadline = time.perf_counter() + 30.0
        while True:
            try:
                health(self.info)
                break
            except OSError:
                if time.perf_counter() > deadline:
                    self.kill()
                    raise
                time.sleep(0.01)
        self.boot_s = time.perf_counter() - self.started_at
        return self.info

    def _stderr_tail(self) -> str:
        self._stderr.flush()
        return Path(self._stderr.name).read_text(errors="replace")[-800:]

    def stop(self, require_drained: bool) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            tail, _ = self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError("server ignored SIGTERM")
        finally:
            self._stderr.close()
        if require_drained:
            start = tail.rfind("{")
            report = json.loads(tail[start:]) if start >= 0 else {}
            if report.get("drained") is not True:
                raise RuntimeError(f"server did not drain: {tail!r}")

    def kill(self) -> None:
        """Make sure the process is gone and reaped (idempotent)."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        if not self._stderr.closed:
            self._stderr.close()


def start_serve(workdir: Path, repo: str, extra: list[str],
                spans_path: Optional[Path] = None) -> Server:
    """Boot ``dlv serve`` on ``repo`` (a path or a ``sqlite://`` URL —
    ``cmd_serve`` reads ``--repo`` only, never ``--store``)."""
    from repro.serve.client import ServeClient

    server = Server(workdir, ["--repo", repo, "serve", "--port", "0", *extra],
                    spans_path)

    def health(info: dict) -> None:
        with ServeClient(port=info["port"], timeout=5.0) as client:
            client.health()

    server.wait_ready(health)
    return server


def start_hub(workdir: Path, hub_dir: Path,
              spans_path: Optional[Path] = None) -> Server:
    from repro.hub.httpd import RemoteHub

    server = Server(workdir, ["hub-serve", "--hub", str(hub_dir)], spans_path)

    def health(info: dict) -> None:
        with RemoteHub(info["url"], timeout=5.0) as hub:
            hub.health()

    server.wait_ready(health)
    return server


def boot_seconds(server: Server, require_drained: bool) -> float:
    """Stop a server that was booted only to time its boot."""
    try:
        server.stop(require_drained)
    finally:
        server.kill()
    return server.boot_s


def repeated_setup(make, workdir: Path, reps: int, boot=None):
    """``make(directory)`` ``reps`` times, each in a directory of its
    own; the run goes on with the last.  Returns that set-up and, for
    each earlier repetition, its whole set-up time: a fresh
    interpreter's imports, ``make`` and ``boot(setup, directory)``, the
    seconds a server takes to its first health reply.  The caller adds
    the last repetition's own total and reports the median, so one slow
    moment of the host does not set ``setup_s``."""
    earlier = []
    for rep in range(reps):
        directory = workdir / f"setup-{rep}"
        directory.mkdir()
        setup = make(directory)
        if rep < reps - 1:
            total = import_seconds(directory) + setup.setup_s
            if boot is not None:
                total += boot(setup, directory)
            earlier.append(total)
    return setup, earlier


# -- seeded inputs ------------------------------------------------------------


def make_dataset(seed: int):
    from repro.dnn.data import synthetic_digits

    return synthetic_digits(size=12, seed=seed)


def train_base(dataset, hidden: int, seed: int, name: str):
    """One trained ``tiny_mlp``; returns (net, solver config)."""
    from repro.dnn.training import SGDConfig, Trainer
    from repro.dnn.zoo import tiny_mlp

    net = tiny_mlp(
        input_shape=dataset.x_train.shape[1:],
        num_classes=dataset.num_classes,
        hidden=hidden,
        name=name,
    ).build(seed=seed)
    config = SGDConfig(base_lr=0.05, epochs=3, batch_size=32, seed=seed)
    Trainer(net, config).fit(dataset.x_train, dataset.y_train)
    return net, config


def perturbed(net, rng, name: str):
    """A fine-tuned variant: 3% of every matrix nudged (bench_dedup recipe)."""
    import numpy as np

    clone = net.clone()
    weights = clone.get_weights()
    for params in weights.values():
        for arr in params.values():
            flat = arr.reshape(-1)
            k = max(1, int(PERTURB_FRAC * flat.size))
            idx = rng.choice(flat.size, size=k, replace=False)
            flat[idx] += rng.normal(0, 0.01, size=k).astype(flat.dtype)
    clone.set_weights(weights)
    clone.name = name
    return clone


def confident_rows(net, x, margin: float = 1e-3):
    """Indices of ``x`` whose top-two output gap is wide enough that a
    batched forward pass (different summation order) cannot flip the
    label — so every request the generator sends has one right answer."""
    import numpy as np

    out = np.sort(net.forward(x), axis=1)
    return np.nonzero(out[:, -1] - out[:, -2] > margin)[0]


#: A ``sub`` delta is float32 arithmetic, so ``base + (target - base)``
#: can land one unit in the last place off ``target``; the program's own
#: tests accept that (``assert_allclose``).  A recreated weight further
#: than this from what was committed is a wrong answer.
WEIGHT_ATOL = 1e-6


def compare_weights(got: dict, want: dict) -> tuple[bool, bool]:
    """(within ``WEIGHT_ATOL`` everywhere, bit-identical everywhere)."""
    import numpy as np

    if got.keys() != want.keys():
        return False, False
    close = exact = True
    for layer, params in want.items():
        if got[layer].keys() != params.keys():
            return False, False
        for key, value in params.items():
            other = got[layer][key]
            if other.shape != value.shape:
                return False, False
            exact = exact and np.array_equal(other, value)
            close = close and bool(
                np.max(np.abs(other - value), initial=0.0) <= WEIGHT_ATOL
            )
    return close, exact
