"""``pipelines.encode.by_key``, the one keyed exchange under every join and
keyed group: equal keys meet in one call, the partition of a key does not
depend on the process, and an empty input still gives a typed result."""

import json
import os
import subprocess
import sys

import numpy as np
import pyarrow as pa
import pytest

from orc_ray.pipelines.encode import by_key, key_parts


def _keys(kind: str, n: int) -> pa.Array:
    rng = np.random.default_rng(11)
    k = rng.integers(-50, 50, n)
    if kind == "int64":
        return pa.array(k, pa.int64())
    return pa.array([f"key-{v}" for v in k], pa.string())


def _count_calls():
    """A by_key function (defined here so Ray ships it by value) giving
    one row per distinct key of its call: the key, its row count and a
    call id shared by every row of the call."""
    def calls(g: pa.Table) -> pa.Table:
        t = g.group_by(["k"]).aggregate([("v", "count")])
        call = int(np.random.default_rng().integers(1 << 62))
        return pa.table({"k": t.column("k"), "n": t.column("v_count"),
                         "call": pa.array([call] * t.num_rows, pa.int64())})
    return calls


@pytest.mark.parametrize("kind", ["int64", "string"])
def test_equal_keys_meet_in_one_call(ray_session, kind):
    import ray.data

    k = _keys(kind, 3000)
    src = ray.data.from_arrow(pa.table({"k": k, "v": pa.array(
        np.arange(len(k)), pa.int64())})).repartition(5).materialize()
    assert src.num_blocks() >= 3
    out = pa.concat_tables(
        by_key(src, "k", _count_calls(), parts=7).iter_batches(
            batch_format="pyarrow", batch_size=None))
    keys = out.column("k").to_pylist()
    assert len(keys) == len(set(keys))  # each key reached exactly one call
    want = pa.table({"k": k}).group_by(["k"]).aggregate([([], "count_all")])
    assert dict(zip(keys, out.column("n").to_pylist())) == dict(zip(
        want.column("k").to_pylist(), want.column("count_all").to_pylist()))
    assert 1 < len(set(out.column("call").to_pylist())) <= 7


def test_key_partition_same_in_another_process():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code = (
        "import json, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from tests.test_by_key import _keys\n"
        "from orc_ray.pipelines.encode import key_parts\n"
        "print(json.dumps({kind: key_parts(_keys(kind, 500), 13).tolist()\n"
        "                  for kind in ('int64', 'string')}))\n")
    env = dict(os.environ, PYTHONHASHSEED="random")
    res = subprocess.run([sys.executable, "-c", code, root], cwd=root,
                         env=env, capture_output=True, text=True, timeout=120,
                         check=True)
    other = json.loads(res.stdout)
    for kind in ("int64", "string"):
        mine = key_parts(_keys(kind, 500), 13)
        assert mine.tolist() == other[kind], kind
        assert mine.min() >= 0 and mine.max() < 13
        assert len(set(mine.tolist())) > 1


def test_empty_input_gives_typed_result(ray_session):
    import ray.data

    empty = pa.table({"k": pa.array([], pa.int64()),
                      "v": pa.array([], pa.int64())})
    calls = _count_calls()
    out = by_key(ray.data.from_arrow(empty), "k", calls)
    assert out.count() == 0
    assert out.schema().base_schema == calls(empty).schema
