"""LAPACK's ``pbsv`` and ``ptsv``, loaded from scipy's compiled wrapper alone.

whipflow calls two LAPACK routines: ``pbsv`` solves the Newton band of a
step and ``ptsv`` every tension system.  No run reaches a ``numpy.linalg``
solver: the decay fit and the sweep's log-log slope are closed-form
least-squares lines (``diagnostics._line_fit``), so no run pays for the
workspace of LAPACK's least-squares solve.  Importing the ``scipy.linalg``
package to get the two would run the ``scipy`` and ``scipy.linalg``
package ``__init__``s: about 0.3 s of imports (array-API shims,
``numpy.f2py``, ``numpy.testing``) that no whipflow run uses.  So this
module locates the scipy package without executing it and loads its
extension module ``scipy.linalg._flapack`` by itself.  The module is
registered under its own name, so scipy, if imported later, reuses it; if
scipy imported it first, CPython hands back the extension module it
already initialised.  Either way ``pbsv`` and ``ptsv`` are the very
float64 routines scipy's own LAPACK lookup returns.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

_NAME = "scipy.linalg._flapack"


def _load_flapack():
    scipy = importlib.util.find_spec("scipy")  # locates, does not execute
    for root in (scipy and scipy.submodule_search_locations) or ():
        finder = importlib.machinery.FileFinder(
            os.path.join(root, "linalg"),
            (importlib.machinery.ExtensionFileLoader,
             importlib.machinery.EXTENSION_SUFFIXES))
        spec = finder.find_spec(_NAME)
        if spec is not None:
            module = importlib.util.module_from_spec(spec)
            sys.modules[_NAME] = module
            spec.loader.exec_module(module)
            return module
    raise ImportError(f"whipflow needs scipy's compiled LAPACK wrapper {_NAME}",
                      name=_NAME)


_flapack = _load_flapack()
pbsv = _flapack.dpbsv
ptsv = _flapack.dptsv
