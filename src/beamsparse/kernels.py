"""scipy's compiled kernels that the package calls, loaded without importing ``scipy.linalg``.

``scipy.linalg``'s ``__init__`` imports numpy.f2py and numpy.testing and would be most of a
cold ``import beamsparse``, so each kernel's extension module is loaded from its file. Every
matrix-vector product of the package goes through scipy's ``zgemv`` and every inner product,
squared norm, scaled vector sum and projection scale of the sweep through its ``zdotc``,
``zdscal`` and ``zaxpy``, beside its ``zposv`` and ``levinson``, so that a run calls one bundled BLAS:
numpy's makes no BLAS call in the sweep, and when BLAS threads are not pinned only scipy's
thread pool runs. f2py's wrappers cost a fraction of a microsecond a call, against about
0.4 to 1.4 for the numpy calls they replace on the sweep's vectors of length N and 2N - 1.
Every FFT goes through scipy's compiled pocketfft, ``c2c``, so the package reaches no
``numpy.fft``."""

from __future__ import annotations

import os
import sys
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


# The Levinson solve behind scipy.linalg.solve_toeplitz, without its argument checks and
# batching; LAPACK's Cholesky solve of a Hermitian system, get_lapack_funcs("posv",
# dtype=complex), called as _posv(a, b, lower, overwrite_a, overwrite_b) with lower = 1, so
# that it factors and reads only a's lower triangle, in place; and from BLAS,
# get_blas_funcs(name, dtype=complex) for each name:
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
# From pocketfft, scipy.fft's complex transform c2c(a, axes, forward, inorm, out, nthreads),
# called as _c2c(a, _LAST, forward, inorm, out, 1): along a's last axis, forward (True) or
# backward (False), scaled by 1 (inorm = 0) or by 1 / L for a length L (inorm = 2, an
# inverse), written into out, which may be a itself, on one thread. It gives numpy.fft's fft
# and ifft of numpy 2 bit for bit, since both wrap the same C++ pocketfft, at about half the
# cost a call: at L = 768 on a 2-core Xeon virtual machine, 5.0 against 10.1 us for one
# forward transform.
# Tests pin every kernel to scipy's own object, the private levinson to solve_toeplitz bit
# for bit, _c2c to scipy.fft's fft and ifft bit for bit, _gemv to numpy's matmul and _dotc
# to numpy's vdot bit for bit at each call site, and call zgemv, zaxpy, zdscal and c2c with
# the positional arguments the package passes.
_levinson = _scipy_extension("scipy.linalg._solve_toeplitz").levinson
_posv = _scipy_extension("scipy.linalg._flapack").zposv
_fblas = _scipy_extension("scipy.linalg._fblas")
_gemv = _fblas.zgemv
_dotc = _fblas.zdotc
_axpy = _fblas.zaxpy
_dscal = _fblas.zdscal
_c2c = _scipy_extension("scipy.fft._pocketfft.pypocketfft").c2c
_LAST = (-1,)


def _real_dot(a, b) -> float:
    """Re a^H b by zdotc, the package's one inner product and, as _real_dot(x, x), its
    squared norm: the sqrt of that is within a few ulp of numpy.linalg.norm(x)."""
    return _dotc(a, b).real
