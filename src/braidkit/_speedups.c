/* Compiled permutation-braid kernels.

   The compiled twin of braidkit._native, with the same algorithm: see
   that module for the data layout, the sliding and its inner scan, and
   the summit step (minimal_simples), which here holds inversion sets as
   rows of bits and keeps no memo. Both twins derive a vertex's inverse
   themselves, from the complements Delta A^-1 of its factors
   (complement), which conjugate_batch uses too. The two return
   bit-identical results on every input.

   Unlike _native, every entry point checks its arguments, so that no
   call can make it read or write outside its buffers: it takes exactly
   its number of arguments, n lies in 1..255, every factor sequence is
   bytes of whole n-byte factors, and every simple element is bytes of
   length n. Bytes that do not spell permutations give a meaningless
   result but no stray access, because every index is a byte, below 256,
   or a position stored in a table that starts zeroed, below n.

   Build: python3 setup.py build_ext --inplace */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>
#include <string.h>

#define MAX_N 255

/* Delta powers stay far inside long long, so the sum of two of them and
   a factor count cannot overflow. */
#define MAX_DELTA (LLONG_MAX / 4)

/* A Delta power into *out; 0 with an exception set if obj is not one. */
static int
delta_arg(PyObject *obj, long long *out)
{
    long long v = PyLong_AsLongLong(obj);

    if (v == -1 && PyErr_Occurred())
        return 0;
    if (v > MAX_DELTA || v < -MAX_DELTA) {
        PyErr_SetString(PyExc_OverflowError, "Delta power out of range for the kernel");
        return 0;
    }
    *out = v;
    return 1;
}

/* The strand count, in 1..MAX_N, or 0 with an exception set. */
static int
strands(PyObject *obj)
{
    long n = PyLong_AsLong(obj);

    if (n == -1 && PyErr_Occurred())
        return 0;
    if (n < 1 || n > MAX_N) {
        PyErr_SetString(PyExc_ValueError, "strand count out of range for the kernel");
        return 0;
    }
    return (int)n;
}

/* The number of factors in flat, or -1 with an exception set. */
static Py_ssize_t
factor_count(PyObject *flat, int n)
{
    if (!PyBytes_Check(flat)) {
        PyErr_SetString(PyExc_TypeError, "a factor sequence must be bytes");
        return -1;
    }
    if (PyBytes_GET_SIZE(flat) % n) {
        PyErr_SetString(PyExc_ValueError, "factor sequence length is not a multiple of n");
        return -1;
    }
    return PyBytes_GET_SIZE(flat) / n;
}

/* tau(A)[k] = n-1-A[n-1-k], factor by factor, from src into dst. */
static void
flip(unsigned char *dst, const unsigned char *src, Py_ssize_t m, int n)
{
    for (Py_ssize_t off = 0; off < m * n; off += n)
        for (int t = 0; t < n; t++)
            dst[off + t] = (unsigned char)(n - 1 - src[off + n - 1 - t]);
}

/* tau^odd(Delta s^-1) into dst (see _native._complement): Delta s^-1
   is the simple element t -> s^-1(n-1-t), and its flip is
   t -> n-1-s^-1(t). */
static void
complement(unsigned char *dst, const unsigned char *s, int n, int odd)
{
    unsigned char inv[256] = {0};

    for (int t = 0; t < n; t++)
        inv[s[t]] = (unsigned char)t;
    for (int t = 0; t < n; t++)
        dst[t] = (unsigned char)(odd ? n - 1 - inv[t] : inv[n - 1 - t]);
}

/* Whether a factor is Delta (reversed) or the identity. */
static int
is_fixed(const unsigned char *f, int n, int reversed)
{
    for (int t = 0; t < n; t++)
        if (f[t] != (reversed ? n - 1 - t : t))
            return 0;
    return 1;
}

/* _native._left_weight on m factors whose first `start` are already
   left-weighted: each later factor is appended in turn and slid
   leftward, pair by pair, stopping at the first pair that does not
   change. A move at i changes only the tests at i-1, i and i+1, so the
   scan for the smallest eligible index resumes at i-1: the same moves
   as a rescan from 0. */
static void
left_weight(unsigned char *buf, Py_ssize_t m, int n, Py_ssize_t start)
{
    unsigned char inv[256] = {0};

    for (Py_ssize_t k = start > 1 ? start : 1; k < m; k++) {
        for (Py_ssize_t j = k; j > 0; j--) {
            unsigned char *a = buf + (j - 1) * n, *b = a + n;
            int moves = 0;

            for (int t = 0; t < n; t++)
                inv[a[t]] = (unsigned char)t;
            for (int i = 0;;) {
                while (i < n - 1 && !(b[i] > b[i + 1] && inv[i] < inv[i + 1]))
                    i++;
                if (i == n - 1)
                    break;
                /* Strip crossing i from the front of b: swap entries.
                   Append it to a: swap the values i, i+1. Each move
                   removes one inversion from b, so a pair takes at most
                   n(n-1)/2 of them, whatever the bytes. */
                moves++;
                unsigned char pa = inv[i], pb = inv[i + 1], tmp = b[i];
                b[i] = b[i + 1];
                b[i + 1] = tmp;
                a[pa] = (unsigned char)(i + 1);
                a[pb] = (unsigned char)i;
                inv[i] = pb;
                inv[i + 1] = pa;
                if (i)
                    i--;
            }
            if (!moves)
                break;
        }
    }
}

/* Left-weight buf and return its key: leading Delta factors move into
   the Delta power, trailing identity factors are dropped. */
static PyObject *
finish(unsigned char *buf, Py_ssize_t m, int n, long long delta, Py_ssize_t start)
{
    Py_ssize_t lo = 0, hi = m;
    PyObject *key;

    if (n == 1)
        /* B_1 is trivial and Delta is the identity. */
        return Py_BuildValue("(iy#)", 0, "", (Py_ssize_t)0);
    left_weight(buf, m, n, start);
    while (lo < m && is_fixed(buf + lo * n, n, 1))
        lo++;
    while (hi > lo && is_fixed(buf + (hi - 1) * n, n, 0))
        hi--;
    key = PyTuple_New(2);
    if (key) {
        PyTuple_SET_ITEM(key, 0, PyLong_FromLongLong(delta + lo));
        PyTuple_SET_ITEM(key, 1, PyBytes_FromStringAndSize((const char *)buf + lo * n, (hi - lo) * n));
        if (!PyTuple_GET_ITEM(key, 0) || !PyTuple_GET_ITEM(key, 1))
            Py_CLEAR(key);
    }
    return key;
}

/* Whether a call has its number of arguments; 0 with TypeError set if not. */
static int
arity(const char *name, Py_ssize_t nargs, Py_ssize_t want)
{
    if (nargs == want)
        return 1;
    PyErr_Format(PyExc_TypeError, "%s() takes %zd arguments (%zd given)", name, want, nargs);
    return 0;
}

static PyObject *
normalize(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    int n;
    long long delta;
    PyObject *key;
    Py_ssize_t m;
    unsigned char *buf;

    if (!arity("normalize", nargs, 3) || !(n = strands(args[0])) || !delta_arg(args[1], &delta) ||
        (m = factor_count(args[2], n)) < 0)
        return NULL;
    if (!(buf = PyMem_Malloc(m * n)))
        return PyErr_NoMemory();
    memcpy(buf, PyBytes_AS_STRING(args[2]), m * n);
    key = finish(buf, m, n, delta, 1);
    PyMem_Free(buf);
    return key;
}

static PyObject *
multiply(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    int n;
    long long p1, p2;
    PyObject *key;
    Py_ssize_t m1, m2;
    unsigned char *buf;

    if (!arity("multiply", nargs, 5) || !(n = strands(args[0])) || !delta_arg(args[1], &p1) ||
        (m1 = factor_count(args[2], n)) < 0 || !delta_arg(args[3], &p2) ||
        (m2 = factor_count(args[4], n)) < 0)
        return NULL;
    if (!(buf = PyMem_Malloc((m1 + m2) * n)))
        return PyErr_NoMemory();
    /* Delta^p2 moves to the front through flat1, flipping it when p2 is
       odd; flat1 stays left-weighted, so the slides start at flat2. */
    if (p2 % 2)
        flip(buf, (const unsigned char *)PyBytes_AS_STRING(args[2]), m1, n);
    else
        memcpy(buf, PyBytes_AS_STRING(args[2]), m1 * n);
    memcpy(buf + m1 * n, PyBytes_AS_STRING(args[4]), m2 * n);
    key = finish(buf, m1 + m2, n, p1 + p2, m1);
    PyMem_Free(buf);
    return key;
}

static PyObject *
conjugate_batch(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    int n;
    long long p;
    PyObject *seq, *out = NULL;
    PyObject **items;
    Py_ssize_t mf, count;
    unsigned char *buf = NULL;

    if (!arity("conjugate_batch", nargs, 4) || !(n = strands(args[0])) || !delta_arg(args[1], &p) ||
        (mf = factor_count(args[2], n)) < 0)
        return NULL;
    /* A tuple of its own: a list could change under a collection that
       an allocation below runs. */
    if (!(seq = PySequence_Tuple(args[3])))
        return NULL;
    count = PySequence_Fast_GET_SIZE(seq);
    items = PySequence_Fast_ITEMS(seq);
    for (Py_ssize_t k = 0; k < count; k++) {
        if (!PyBytes_Check(items[k])) {
            PyErr_SetString(PyExc_TypeError, "a simple element must be bytes");
            goto fail;
        }
        if (PyBytes_GET_SIZE(items[k]) != n) {
            PyErr_SetString(PyExc_ValueError, "a simple element must be n bytes long");
            goto fail;
        }
    }
    if (!(buf = PyMem_Malloc((mf + 2) * n))) {
        PyErr_NoMemory();
        goto fail;
    }
    if (!(out = PyList_New(count)))
        goto fail;
    for (Py_ssize_t k = 0; k < count; k++) {
        const unsigned char *s = (const unsigned char *)PyBytes_AS_STRING(items[k]);
        PyObject *key;

        /* s^-1 x s = Delta^(p-1) * tau^p(Delta s^-1) * flat * s. */
        complement(buf, s, n, p % 2 != 0);
        memcpy(buf + n, PyBytes_AS_STRING(args[2]), mf * n);
        memcpy(buf + (mf + 1) * n, s, n);
        if (!(key = finish(buf, mf + 2, n, p - 1, 1)))
            goto fail;
        PyList_SET_ITEM(out, k, key);
    }
    PyMem_Free(buf);
    Py_DECREF(seq);
    return out;

fail:
    PyMem_Free(buf);
    Py_XDECREF(out);
    Py_DECREF(seq);
    return NULL;
}

/* Inversion sets, for the prefix order (see _native): row i holds the
   positions j > i with perm[i] > perm[j], as n bits in w = ceil(n/64)
   words, so every n in 1..MAX_N fits. */
typedef unsigned long long word_t;

static void
inversions(word_t *set, const unsigned char *perm, int n, int w)
{
    memset(set, 0, (size_t)n * w * sizeof *set);
    for (int i = 0; i < n; i++)
        for (int j = i + 1; j < n; j++)
            if (perm[i] > perm[j])
                set[i * w + j / 64] |= 1ULL << (j % 64);
}

static int
has(const word_t *set, int i, int j, int w)
{
    return (int)(set[i * w + j / 64] >> (j % 64) & 1);
}

/* Close set transitively and write the simple element with that
   inversion set into perm: for a union of inversion sets, their join.
   Rows are closed from the bottom up, so adding the rows of row i's
   bits closes row i. The value at k counts the positions holding smaller
   values: the inversions (k, j) to its right and the non-inversions
   (i, k) to its left. */
static void
closure_simple(unsigned char *perm, word_t *set, int n, int w)
{
    for (int i = n - 3; i >= 0; i--)
        for (int j = i + 1; j < n; j++)
            if (has(set, i, j, w))
                for (int t = 0; t < w; t++)
                    set[i * w + t] |= set[j * w + t];
    for (int k = 0; k < n; k++) {
        int v = k;

        for (int j = k + 1; j < n; j++)
            v += has(set, k, j, w);
        for (int i = 0; i < k; i++)
            v -= has(set, i, k, w);
        perm[k] = (unsigned char)v;
    }
}

/* a := f^-1 (a v f), the quotient of the join by f, with fset the
   inversion set of f. join and quotient take 256 bytes, so a factor
   whose bytes are no permutation writes no further. */
static void
push(unsigned char *a, const unsigned char *f, const word_t *fset, int n, int w, word_t *set,
     unsigned char *join, unsigned char *quotient)
{
    inversions(set, a, n, w);
    for (int t = 0; t < n * w; t++)
        set[t] |= fset[t];
    closure_simple(join, set, n, w);
    for (int k = 0; k < n; k++)
        quotient[f[k]] = join[k];
    memcpy(a, quotient, n);
}

/* _native.minimal_simples without its memo: on B_7 summit sets a vertex
   takes about 13 us here, against about 230 us there with the memo.
   Each step grows s's inversion set or settles one side, so every rho is
   found in at most n(n-1) + 2 steps, whatever the bytes. */
static PyObject *
minimal_simples(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    int n, w;
    long long p;
    Py_ssize_t m;
    const unsigned char *flat;
    unsigned char *inverses, *rhos, a[256], join[256] = {0}, quotient[256] = {0};
    /* two inversion sets of n rows each, the inversion sets of the m
       factors of x and then of x^-1, the m factors of x^-1, then each
       atom's rho */
    word_t *sets, *fsets;
    PyObject *out = NULL;

    if (!arity("minimal_simples", nargs, 4) || !(n = strands(args[0])) || !delta_arg(args[1], &p) ||
        (m = factor_count(args[2], n)) < 0)
        return NULL;
    /* args[3] is _native's memo, which this twin ignores. */
    flat = (const unsigned char *)PyBytes_AS_STRING(args[2]);
    w = (n + 63) / 64;
    /* (2 + 2m) n w words and (m + n) n bytes, below 70 (m + n) n bytes
       as w <= 4; the first test keeps that product from wrapping. */
    if ((size_t)m > (size_t)PY_SSIZE_T_MAX / 70 / n - n ||
        !(sets = PyMem_Malloc((2 + 2 * (size_t)m) * n * w * sizeof *sets + ((size_t)m + n) * n)))
        return PyErr_NoMemory();
    fsets = sets + 2 * n * w;
    inverses = (unsigned char *)(fsets + 2 * m * n * w);
    rhos = inverses + m * n;
    /* x = Delta^p A_1..A_m, and x^-1 = Delta^(-p-m) times
       tau^(p+j-1)(Delta A_j^-1) for j = m down to 1 (see
       _native._inverse): each side's factors in push order. */
    for (Py_ssize_t k = 0; k < m; k++) {
        complement(inverses + k * n, flat + (m - 1 - k) * n, n, (p + m - 1 - k) % 2 != 0);
        inversions(fsets + k * n * w, flat + k * n, n, w);
        inversions(fsets + (m + k) * n * w, inverses + k * n, n, w);
    }
    for (int i = 0; i < n - 1; i++) {
        unsigned char *s = rhos + i * n;

        for (int t = 0; t < n; t++)
            s[t] = (unsigned char)t;
        s[i] = (unsigned char)(i + 1);
        s[i + 1] = (unsigned char)i;
        for (int settled = 0, side = 0; settled < 2; side ^= 1) {
            int grows = 0;

            /* a = tau^q(s), pushed through the factors of this side. */
            if ((side ? p + m : p) % 2)
                flip(a, s, 1, n);
            else
                memcpy(a, s, n);
            for (Py_ssize_t k = 0; k < m && !is_fixed(a, n, 0); k++)
                push(a, (side ? inverses : flat) + k * n, fsets + (side * m + k) * n * w, n, w, sets, join,
                     quotient);
            inversions(sets, s, n, w);
            inversions(sets + n * w, a, n, w);
            for (int t = 0; t < n * w; t++) {
                grows |= (sets[n * w + t] & ~sets[t]) != 0;
                sets[t] |= sets[n * w + t];
            }
            if (grows) {
                closure_simple(s, sets, n, w);
                settled = 0;
            } else {
                settled++;
            }
        }
    }
    /* rho(sigma_i) is minimal iff every atom prefix of it has the same
       rho; each is listed once, at its first atom. */
    if (!(out = PyList_New(0)))
        goto done;
    for (int i = 0; i < n - 1; i++) {
        const unsigned char *rho = rhos + i * n;
        int keep = 1;
        PyObject *item;

        for (int k = 0; k < i && keep; k++)
            keep = memcmp(rhos + k * n, rho, n) != 0;
        for (int j = 0; j < n - 1 && keep; j++)
            keep = rho[j] <= rho[j + 1] || memcmp(rhos + j * n, rho, n) == 0;
        if (!keep)
            continue;
        if (!(item = PyBytes_FromStringAndSize((const char *)rho, n)) || PyList_Append(out, item) < 0) {
            Py_XDECREF(item);
            Py_CLEAR(out);
            goto done;
        }
        Py_DECREF(item);
    }

done:
    PyMem_Free(sets);
    return out;
}

static PyMethodDef methods[] = {
    {"normalize", (PyCFunction)(void (*)(void))normalize, METH_FASTCALL,
     "normalize(n, delta, flat) -> (delta, flat): the normal form of Delta^delta * flat."},
    {"multiply", (PyCFunction)(void (*)(void))multiply, METH_FASTCALL,
     "multiply(n, p1, flat1, p2, flat2) -> (delta, flat): the normal form of a product of\n"
     "two keys; (p1, flat1) must be a normal form."},
    {"conjugate_batch", (PyCFunction)(void (*)(void))conjugate_batch, METH_FASTCALL,
     "conjugate_batch(n, p, flat, simples) -> list: the normal form of s^-1 * x * s for\n"
     "each simple element s, in order."},
    {"minimal_simples", (PyCFunction)(void (*)(void))minimal_simples, METH_FASTCALL,
     "minimal_simples(n, p, flat, memo) -> list: the minimal simple elements of the summit\n"
     "element Delta^p * flat, in atom order; memo is ignored."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_speedups",
    .m_doc = "Compiled permutation-braid kernels (see braidkit._native).",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__speedups(void)
{
    PyObject *mod = PyModule_Create(&module);

    if (mod && PyModule_AddStringConstant(mod, "BACKEND", "c") < 0)
        Py_CLEAR(mod);
    return mod;
}
