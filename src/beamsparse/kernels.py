"""scipy's compiled kernels that the package calls, loaded without importing ``scipy.linalg``.

``scipy.linalg``'s ``__init__`` imports numpy.f2py and numpy.testing and would be most of a
cold ``import beamsparse``, so each kernel's extension module is loaded from its file. Every
matrix-vector product of the package goes through scipy's ``zgemv`` and every inner product,
squared norm, scaled vector sum and projection scale of the sweep through its ``zdotc``,
``zdscal`` and ``zaxpy``, beside its ``zposv`` and ``levinson``, so that a run calls one bundled BLAS:
numpy's makes no BLAS call in the sweep, and when BLAS threads are not pinned only scipy's
thread pool runs. f2py's wrappers cost a fraction of a microsecond a call, against about
0.4 to 1.4 for the numpy calls they replace on the sweep's vectors of length N and 2N - 1.
Every FFT goes through scipy's compiled pocketfft, ``c2c``, at pocketfft's good size
(``_good_size``), so the package reaches no ``numpy.fft``.

Each module is loaded where the first path that calls it is selected, once per process:
``scipy.linalg._solve_toeplitz`` (levinson, the data block) and ``scipy.linalg._fblas`` (the
BLAS routines) at import, since every solve calls them; ``scipy.linalg._flapack`` (zposv) by
the first w block below ``admm._SPECTRAL_CROSSOVER`` elements, or the first system that the
conjugate gradients hand to Cholesky from it on; and ``scipy.fft._pocketfft.pypocketfft``
(c2c) by the first solve or public block from ``admm._SPECTRAL_CROSSOVER`` elements on, whose
moments and conjugate gradients call it (``_bind``). A process then maps only the kernels its
sizes run: from N = 144 on no LAPACK module unless a system falls back (about 1.0 MiB of
resident memory in a fresh interpreter on a 2-core Xeon virtual machine) and below N = 144
no pocketfft (about 0.5 MiB). No path imports numpy's random package, which numpy 2 loads
only on first use, or the OpenSSL it maps: the solve's seeded start comes from the package's
own generator (``normals``), where numpy's cost about 5.9 MiB."""

from __future__ import annotations

import os
import sys
import threading
from importlib.machinery import PathFinder
from importlib.util import module_from_spec
from types import ModuleType


def _scipy_extension(name: str) -> ModuleType:
    """The compiled module ``name`` of scipy, loaded from its file in scipy's directory
    without running the ``__init__`` of the subpackage that holds it.

    Importing top-level scipy runs its distributor init, which sets up the load path of
    scipy's bundled BLAS on some platforms. An extension module is initialized once per
    process, so a later ``import scipy.linalg`` hands back the same functions.
    """
    import scipy

    _, *subpackage, _ = name.split(".")
    spec = PathFinder.find_spec(name, [os.path.join(p, *subpackage) for p in scipy.__path__])
    if spec is None:
        raise ImportError(f"no module {name} in {list(scipy.__path__)}", name=name)
    absent = name not in sys.modules
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    if absent:
        # a Cython module enters itself in sys.modules; there without its subpackage, it
        # would keep a later import of the subpackage from binding it as an attribute
        sys.modules.pop(name, None)
    return module


#: The loader's state: each scipy module ``_load`` has loaded in this process, by name, and
#: the lock that makes a first load, and a first binding (``_bind``), happen once.
_loaded: dict[str, ModuleType] = {}
_lock = threading.RLock()


def _load(name: str) -> ModuleType:
    """scipy's compiled module ``name`` (``_scipy_extension``), loaded on the first call that
    names it and recorded in ``_loaded``."""
    with _lock:
        if name not in _loaded:
            _loaded[name] = _scipy_extension(name)
        return _loaded[name]


#: The kernels that only some sizes call, each bound by ``_bind`` from its module's function.
_ON_SELECTION = {
    "_posv": ("scipy.linalg._flapack", "zposv"),
    "_c2c": ("scipy.fft._pocketfft.pypocketfft", "c2c"),
}


def _bind(namespace: dict, name: str) -> None:
    """Bind the kernel ``name`` of ``_ON_SELECTION`` in a module's globals where it is still
    None, loading its module on the first binding in the process.

    The caller binds where it selects the path that calls the kernel, once per solve or public
    call, so the sweep calls the global with no lookup or wrapper of its own. Under the lock a
    binding is written once, and a global already bound, to the kernel or to a test's
    substitute, is left as it is."""
    with _lock:
        if namespace[name] is None:
            module, function = _ON_SELECTION[name]
            namespace[name] = getattr(_load(module), function)


def _good_size(n: int) -> int:
    """pocketfft's good_size, the smallest 2^a 3^b 5^c 7^d 11^e >= n: every transform's length."""
    return _load(_ON_SELECTION["_c2c"][0]).good_size(n, False)


# The Levinson solve behind scipy.linalg.solve_toeplitz, without its argument checks and
# batching; and from BLAS, get_blas_funcs(name, dtype=complex) for each name:
# - the matrix-vector product zgemv, called as _gemv(1.0, a, x) for a x with a
#   Fortran-ordered a, and as _gemv(1.0, a.T, x, trans=1) for a C-ordered a. f2py copies any
#   other layout to Fortran order, which leaves the product's bits as they are. The sweep
#   writes its Gram diagonals into a buffer y from entry k on, with all eleven arguments
#   positional: _gemv(alpha, a, x, beta, y, offx, incx, offy, incy, trans, overwrite_y) as
#   _gemv(1.0, a, x, 0.0, y, 0, 1, k, 1, 0, 1);
# - the inner product zdotc, _dotc(a, b) = a^H b, a Python complex;
# - zaxpy, _axpy(x, y, n, a) = a x + y over y's n entries, written into y and returned;
# - zdscal, _dscal(b, y, n, 0, 1, 1) = b y for a real b (a, x, n, offx, incx, overwrite_x),
#   written into y and returned.
# f2py parses keywords on every call: at N = 30 on a 2-core Xeon virtual machine a keyword
# call of zdscal took 0.46 us and a positional one 0.22 us, so the sweep passes its
# arguments in order, up to the last one it sets.
# Bound on selection (_ON_SELECTION): LAPACK's Cholesky solve of a Hermitian system,
# get_lapack_funcs("posv", dtype=complex), called as _posv(a, b, lower, overwrite_a,
# overwrite_b) with lower = 1, so that it factors and reads only a's lower triangle, in
# place; and pocketfft's complex transform, scipy.fft's c2c(a, axes, forward, inorm, out,
# nthreads), called as _c2c(a, _LAST, forward, inorm, out, 1): along a's last axis, forward
# (True) or backward (False), scaled by 1 (inorm = 0) or by 1 / L for a length L (inorm = 2,
# an inverse), written into out, which may be a itself, on one thread. It gives numpy.fft's
# fft and ifft of numpy 2 bit for bit, since both wrap the same C++ pocketfft, at about half
# the cost a call: at L = 768 on a 2-core Xeon virtual machine, 5.0 against 10.1 us for one
# forward transform.
# Tests pin every kernel to scipy's own object, the private levinson to solve_toeplitz bit
# for bit, _c2c to scipy.fft's fft and ifft bit for bit, _gemv to numpy's matmul and _dotc
# to numpy's vdot bit for bit at each call site, and call zgemv, zaxpy, zdscal and c2c with
# the positional arguments the package passes.
_levinson = _load("scipy.linalg._solve_toeplitz").levinson
_fblas = _load("scipy.linalg._fblas")
_gemv = _fblas.zgemv
_dotc = _fblas.zdotc
_axpy = _fblas.zaxpy
_dscal = _fblas.zdscal
_LAST = (-1,)


def _real_dot(a, b) -> float:
    """Re a^H b by zdotc, the package's one inner product and, as _real_dot(x, x), its
    squared norm: the sqrt of that is within a few ulp of numpy.linalg.norm(x)."""
    return _dotc(a, b).real
