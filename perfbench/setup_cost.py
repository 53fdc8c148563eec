"""Set-up time: from the package import to the first shot or decode being ready.

Each measurement drops every ``f2qec`` module (and the benchmark's
``recompose``, which imports them) from ``sys.modules`` and imports the
package again, so every repetition pays the module execution and the
construction of the codes, pipelines, recipes, decoders and reference
runs afresh.  numpy stays imported; its import is not the package's.
"""

from __future__ import annotations

import importlib
import sys
import time


def _purge():
    for name in [n for n in sys.modules
                 if n == "f2qec" or n.startswith("f2qec.") or n == "recompose"]:
        del sys.modules[name]


def measure(workload: str, code_text: str) -> float:
    """Seconds of one fresh set-up for the given workload."""
    _purge()
    t0 = time.perf_counter()
    importlib.import_module("f2qec.cli")
    t_import = time.perf_counter()
    rc = importlib.import_module("recompose")   # benchmark code, not timed
    from spans import Tracer

    ex = sys.modules["f2qec.experiment"]
    pr = sys.modules["f2qec.protocol"]
    ss = sys.modules["f2qec.stab_sim"]
    cf = sys.modules["f2qec.code_factory"]
    dec = sys.modules["f2qec.decoder"]
    css = sys.modules["f2qec.css_code"]
    t1 = time.perf_counter()
    if workload in ("ghz-logical", "ft-analysis"):
        code = cf.build_25_4_3()
        cfg = ex.RunConfig(mode="logical", noise=rc.PAPER)
        for index, basis in enumerate("zx"):
            circuit, recipe = pr.logical_ghz_circuit(code, basis)
            ss.reference_record(circuit, (0, index))
            rc.TracedDecoder(Tracer(), code, circuit, cfg, basis, recipe,
                             rc.DecoderStats())
        if workload == "ft-analysis":
            pr.zigzag_schedule(code)
            pr.row_major_schedule(code)
    elif workload == "decode-distinct":
        code = css.CssCode.loads(code_text)
        for h in (code.hz, code.hx):
            dec.MinSumDecoder(h, dec.uniform_priors(h.cols))
    else:
        raise ValueError(f"unknown workload {workload}")
    return (t_import - t0) + (time.perf_counter() - t1)
