"""CLI ``cfid``/``fid`` at d = 1024 against evaluations with no Cholesky factor.

    python tests/frechet_oracle.py write DIR
    python tests/frechet_oracle.py check DIR

``write`` puts two EMB1 input sets under DIR: ``full`` (4,096 rows of
1,024-column x, y and xhat) and ``few`` (768 rows of 1,024-column x and
xhat and 256-column y, so rows < dims and both covariances are singular).
``check`` reads the artifacts ``<set>-cfid.json`` and ``<set>-fid.json``
that the CLI wrote to DIR/one-cpu (under ``taskset -c 0``) and to DIR/out
(on all CPUs).  Each value must be within 1e-10 relative of each of its
evaluations: two ``sqrtm_psd`` calls for both sets, and for ``few`` also
singular values of centred rows, which square no eigenvalue.  It prints
whether the two runs wrote the same bytes, but does not fail on that.
Exit 1 on a miss.
"""

import json
import math
import os
import sys

import numpy as np

from oracles import (
    plain_stats,
    singular_value_cfid_parts,
    singular_value_fid,
    sqrtm_cfid_parts,
    sqrtm_fid,
    write_embeddings,
)
from postsamp.cfid import read_embeddings

DIM = 1024
SETS = {"full": (4096, DIM), "few": (768, 256)}  # name: (rows, y columns)
RTOL = 1e-10


def _write(root: str) -> None:
    for name, (rows, dim_y) in SETS.items():
        rng = np.random.default_rng(rows)
        x = rng.standard_normal((rows, DIM)) * rng.uniform(0.5, 2.0, DIM)
        y = x @ (rng.standard_normal((DIM, dim_y)) / math.sqrt(DIM))
        y += 0.3 * rng.standard_normal(y.shape)
        xhat = 0.8 * x + 0.1 + 0.7 * rng.standard_normal(x.shape)
        os.makedirs(os.path.join(root, name))
        for key, matrix in (("x", x), ("y", y), ("xhat", xhat)):
            write_embeddings(os.path.join(root, name, f"{key}.emb"), matrix)


def _check(root: str) -> int:
    misses = 0
    for name in SETS:
        x, y, xhat = (read_embeddings(os.path.join(root, name, f"{key}.emb"))
                      for key in ("x", "y", "xhat"))
        want = {"cfid": {"sqrtm_psd": sum(sqrtm_cfid_parts(plain_stats(x, y, xhat)))},
                "fid": {"sqrtm_psd": sqrtm_fid(x, xhat)}}
        if name == "few":
            want["cfid"]["singular-value"] = sum(singular_value_cfid_parts(x, y, xhat))
            want["fid"]["singular-value"] = singular_value_fid(x, xhat)
        for command, evaluations in want.items():
            artifact = f"{name}-{command}.json"
            texts = {}
            for run in ("one-cpu", "out"):
                with open(os.path.join(root, run, artifact), "rb") as handle:
                    texts[run] = handle.read()
                got = json.loads(texts[run])["results"][command]
                for method, expected in evaluations.items():
                    error = abs(got - expected) / abs(expected)
                    ok = error <= RTOL
                    misses += not ok
                    print(f"{artifact} ({run}): {got!r}, {error:.1e} relative from the "
                          f"{method} evaluation {expected!r}: {'ok' if ok else 'MISS'}")
            same = "the same" if texts["one-cpu"] == texts["out"] else "different"
            print(f"{artifact}: one CPU and all CPUs wrote {same} bytes")
    return 1 if misses else 0


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] not in ("write", "check"):
        sys.exit(__doc__)
    if sys.argv[1] == "write":
        _write(sys.argv[2])
    else:
        sys.exit(_check(sys.argv[2]))
