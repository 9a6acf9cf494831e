"""Building and loading the compiled kernels: the cache, the typed error
when a kernel cannot be built, the atomic first compile, and the scratch
each kernel allocates and frees."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import scenepretext
from scenepretext import autodiff as ad
from scenepretext import kernels
from scenepretext.cli import main
from scenepretext.correspondence import farthest_point_sample
from scenepretext.errors import KernelUnavailable
from scenepretext.pipeline import PipelineConfig, generate_dataset

CLOUD = np.random.default_rng(9).normal(size=(40, 3))


@pytest.fixture
def fresh_cache(tmp_path, monkeypatch):
    """An empty kernel cache under ``tmp_path``; every kernel is built or
    loaded again inside the test, and again after it."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    kernels.load.cache_clear()
    yield tmp_path / "xdg" / "scenepretext"
    kernels.load.cache_clear()


def test_first_use_builds_one_library_into_the_cache(fresh_cache):
    picks = farthest_point_sample(CLOUD, 7, 3)
    assert [p.name.startswith("kernels-") and p.suffix == ".so"
            for p in fresh_cache.iterdir()] == [True]
    assert fresh_cache.stat().st_mode & 0o777 == 0o700
    kernels.load.cache_clear()
    np.testing.assert_array_equal(farthest_point_sample(CLOUD, 7, 3), picks)


def test_missing_compiler_raises_kernel_unavailable(fresh_cache,
                                                    monkeypatch):
    monkeypatch.setattr(kernels, "_compiler",
                        lambda: ["scenepretext-no-such-cc", "-q"])
    with pytest.raises(KernelUnavailable,
                       match="'scenepretext-no-such-cc -q'.*kernels-"):
        farthest_point_sample(CLOUD, 7, 3)
    assert list(fresh_cache.iterdir()) == []


def test_no_configured_compiler_raises_kernel_unavailable(fresh_cache,
                                                          monkeypatch):
    monkeypatch.setattr(kernels, "_compiler", lambda: [])
    with pytest.raises(KernelUnavailable, match="no C compiler"):
        farthest_point_sample(CLOUD, 7, 3)


def test_failed_compile_leaves_no_library(fresh_cache, tmp_path,
                                          monkeypatch):
    (tmp_path / "kernels.c").write_text("this is not C\n")
    monkeypatch.setattr(kernels, "__file__", str(tmp_path / "kernels.py"))
    with pytest.raises(KernelUnavailable,
                       match=f"cannot compile {re.escape(str(tmp_path))}"):
        kernels.load()
    assert list(fresh_cache.iterdir()) == []


def test_unwritable_cache_raises_kernel_unavailable(fresh_cache):
    fresh_cache.parent.mkdir()
    fresh_cache.write_text("a file where the cache directory goes")
    with pytest.raises(KernelUnavailable, match=re.escape(str(fresh_cache))):
        farthest_point_sample(CLOUD, 7, 3)


def test_cli_without_a_compiler_exits_2(fresh_cache, tmp_path, monkeypatch,
                                        capsys):
    config = PipelineConfig(n_scenes=1, n_objects_per_scene=3,
                            points_per_object=48, m_seeds=24,
                            n_encoder_seeds=12, u=2, feature_dim=8,
                            embed_dim=8, encoder_hidden=12, proj_hidden=8,
                            decoder_hidden=10, master_seed=7)
    generate_dataset(config, tmp_path / "ds", progress=False)
    kernels.load.cache_clear()
    for lib in fresh_cache.iterdir():
        lib.unlink()
    monkeypatch.setattr(kernels, "_compiler",
                        lambda: ["scenepretext-no-such-cc"])
    assert main(["losses", str(tmp_path / "ds")]) == 2
    assert "scenepretext-no-such-cc" in capsys.readouterr().err


# a first use entering through each kernel, printing its result as JSON;
# either one builds the one library that holds both
FIRST_USE = {
    "fps": """
import json
import numpy as np
from scenepretext.correspondence import farthest_point_sample
pts = np.random.default_rng(9).normal(size=(400, 3))
print(json.dumps(farthest_point_sample(pts, 50, 3).tolist()))
""",
    "chamfer": """
import json
import numpy as np
from scenepretext import autodiff as ad
rng = np.random.default_rng(9)
x, y = rng.normal(size=(400, 3)), rng.normal(size=(300, 3))
print(json.dumps(ad.chamfer(ad.leaf(x), ad.leaf(y)).item()))
""",
}


def test_library_exports_every_signature():
    # the source's external functions are exactly the declared ones
    source = Path(kernels.__file__).with_suffix(".c").read_text()
    assert sorted(re.findall(r"^\w+ (\w+)\(", source, re.M)) \
        == sorted(kernels.SIGNATURES)
    dll = kernels.load()
    for fn, (argtypes, restype) in kernels.SIGNATURES.items():
        assert getattr(dll, fn).argtypes == argtypes, fn
        assert getattr(dll, fn).restype is restype, fn


@pytest.mark.parametrize("name", sorted(FIRST_USE))
def test_concurrent_first_compiles_leave_one_library(tmp_path, name):
    (tmp_path / "xdg").mkdir()
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path / "xdg"),
               PYTHONPATH=str(Path(scenepretext.__file__).parents[1]))
    procs = [subprocess.Popen([sys.executable, "-c", FIRST_USE[name]],
                              env=env, stdout=subprocess.PIPE, text=True)
             for _ in range(2)]
    outs = [json.loads(p.communicate(timeout=120)[0]) for p in procs]
    assert [p.returncode for p in procs] == [0, 0]
    here = io.StringIO()
    with contextlib.redirect_stdout(here):
        exec(FIRST_USE[name], {})
    assert outs[0] == outs[1] == json.loads(here.getvalue())
    cache = tmp_path / "xdg" / "scenepretext"
    assert [p.name.split("-")[0] for p in cache.glob("*.so")] == ["kernels"]
    assert list(cache.glob("*.tmp")) == []


def _resident_mb() -> float:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"),
                    reason="needs /proc/self/statm")
def test_kernel_scratch_is_freed():
    # each block, 28 KB for fps and 43 KB for chamfer here, lies below
    # malloc's mmap threshold, so one that is never freed stays resident:
    # about 50 and 80 MB over 2000 calls, against 0.1 MB when freed
    rng = np.random.default_rng(11)
    x, y = rng.normal(size=(576, 3)), rng.normal(size=(576, 3))
    cloud = rng.normal(size=(3072, 3))

    def calls(k):
        for _ in range(k):
            ad._neighbours(x, y)
            farthest_point_sample(cloud, 8, 1)

    calls(50)
    before = _resident_mb()
    calls(2000)
    assert _resident_mb() - before < 16


# under an address-space limit 5 MB above what the inputs take, each
# kernel's block (8 MB for fps, 10 MB for chamfer) cannot be had; the
# library and the isfinite check's 3 MB temporary are mapped once before
NO_SCRATCH = """
import resource
import numpy as np
from scenepretext import autodiff as ad
from scenepretext import kernels
from scenepretext.correspondence import farthest_point_sample
cloud = np.random.default_rng(9).normal(size=(10**6, 3))
x, y = np.ones((5000, 200)), np.zeros((1, 200))
np.isfinite(cloud).all()
kernels.load()
with open("/proc/self/statm") as f:
    vm = int(f.read().split()[0]) * resource.getpagesize()
resource.setrlimit(resource.RLIMIT_AS,
                   (vm + 5 * 2**20, resource.RLIM_INFINITY))
for call in (lambda: farthest_point_sample(cloud, 2, 1),
             lambda: ad._neighbours(x, y)):
    try:
        call()
    except MemoryError as e:
        print(e)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"),
                    reason="needs /proc/self/statm")
def test_kernels_without_scratch_raise_memory_error():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(scenepretext.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", NO_SCRATCH], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "no scratch for FPS over 1000000 points",
        "no scratch for Chamfer of 5000 x 1 rows"]
