/* Compiled word kernel.
 *
 * Twin of ``_wordops_py``: the same seven functions with the same results,
 * with the reduction stack held in a C array. Letters are nonzero signed
 * integers; a letter and its negative cancel. Three ops reduce, join and
 * substitute words; ``draw_letters`` calls a uniform source, such as a
 * bound ``Random.random``, and turns its draws into the letters of a
 * random reduced word; ``format_letters`` writes the names of a word's
 * letters into one new string, sized by a first pass over the letters;
 * ``format_image`` writes the names of the letters of a word's image, as
 * ``format_letters(substitute(...), names)`` does, straight from the
 * reduction stack, so the image is never boxed into a tuple;
 * ``read_tokens`` reads word text: it splits the text at the whitespace
 * of ``str.split()`` and looks every token up in a table. ASCII text is
 * scanned in place, and each distinct token is looked up once, through a
 * memo keyed by the token's bytes, so a str is made only for a token not
 * seen before in that call; other text is split by ``PyUnicode_Split``.
 * There is one substitution routine, ``reduce_images``, which
 * ``substitute`` and ``format_image`` share, and one name writer,
 * ``write_names``, which ``format_letters`` and ``format_image`` share:
 * it reads letters as objects or as C longs.
 *
 * ``substitute`` and ``format_image`` also check a letter budget, given by
 * keyword only: a first pass sums the lengths of the images the word uses
 * and raises ``mcgcalc.errors.ImageBudgetError``, looked up when it is
 * raised, past the budget, before any image letter is read or the result
 * allocated.
 *
 * Invalid input raises the pure kernel's exception type. Letters are read
 * as C longs in [-LONG_MAX, LONG_MAX], so negating one is always defined;
 * one outside that range raises OverflowError; ``format_letters`` reads a
 * letter as a tuple index instead, so one outside the tuple raises
 * IndexError. Only ints and strs are read inside the word loops of the
 * five word ops, so no Python code runs there and borrowed items stay
 * valid. ``read_tokens`` is the one op that calls ``__getitem__``: the
 * table's, once per distinct token (every token, for text that is not
 * ASCII), and that may run Python code. So its memo holds owned
 * references to the values, lives only for the call (no module state) and
 * keys on bytes of the text, which is immutable, and the result tuple
 * holds only values it owns. ``draw_letters`` runs Python code once per
 * letter: its loop calls ``random`` with ``PyObject_CallNoArgs``. It
 * copies the letters into a C array before the first call and keeps the
 * drawn letters in a C array until the last, so that call sees none of
 * its state. Each draw is an owned reference: it must be a float in
 * [0, 1), its value is read, and it is released before the next call, on
 * failure too.
 *
 * Boxing is the per-letter cost, so both ends of it skip the C API where
 * they can. ``fast_letter`` reads an exact int of at most one digit
 * straight from the object: ``ob_digit`` and the sign of ``ob_size`` up to
 * 3.11, ``PyUnstable_Long_IsCompact``/``CompactValue`` from 3.12, where
 * that layout changed (the guard is on PY_VERSION_HEX; the 3.11 read does
 * not compile against the later headers). Bools, int subclasses, larger
 * ints and non-ints take ``read_letter``'s checked path with its
 * exceptions. Results take their letters from a table of boxed ints for
 * [-SHARED_EDGE, SHARED_EDGE], filled when the module is executed and
 * released with it (module state); a letter outside it is boxed anew.
 * ``format_image`` boxes no letter of its result at all.
 *
 * ``setup.py build_ext --inplace`` builds it and defines SOURCE_SHA256,
 * the sha256 of this file, which the test suite compares with the source
 * to find a stale build; by hand:
 *     cc -O2 -shared -fPIC -I<python include> _wordops_c.c \
 *        -o _wordops_c$(python3-config --extension-suffix)
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>
#include <stdint.h>

/* A build by hand does not know its source's hash. */
#ifndef SOURCE_SHA256
#define SOURCE_SHA256 "unknown"
#endif

/* Keeps a helper that a loop calls rarely out of that loop, which then
 * holds its state in registers (Py_NO_INLINE is not in every 3.10+). */
#if defined(__GNUC__) || defined(__clang__)
#define NOINLINE __attribute__((noinline))
#elif defined(_MSC_VER)
#define NOINLINE __declspec(noinline)
#else
#define NOINLINE
#endif

/* Results share the boxed letters in [-SHARED_EDGE, SHARED_EDGE]. */
#define SHARED_EDGE 1024

typedef struct {
    PyObject *letters[2 * SHARED_EDGE + 1];  /* letters[v + SHARED_EDGE] is v */
} KernelState;

/* Reads an exact int of at most one digit into *out without a call and
 * returns 1; returns 0 for any other object, which then takes the checked
 * path. Such a value is below 2**30 in size, so it is never LONG_MIN. */
static inline int
fast_letter(PyObject *obj, long *out)
{
    if (!PyLong_CheckExact(obj)) {
        return 0;
    }
#if PY_VERSION_HEX >= 0x030C0000
    if (!PyUnstable_Long_IsCompact((PyLongObject *)obj)) {
        return 0;
    }
    *out = (long)PyUnstable_Long_CompactValue((PyLongObject *)obj);
#else
    {
        Py_ssize_t size = Py_SIZE(obj);

        if (size < -1 || size > 1) {
            return 0;
        }
        /* Zero may have no digit allocated at all. */
        *out = size == 0 ? 0 : (long)size * (long)((PyLongObject *)obj)->ob_digit[0];
    }
#endif
    return 1;
}

/* Reads a letter that ``fast_letter`` did not into *out, with *overflow
 * set for an int beyond a C long; returns -1 with an exception set for a
 * letter that is no int. */
static int
slow_letter(PyObject *obj, long *out, int *overflow)
{
    if (!PyLong_Check(obj)) {
        PyErr_Format(PyExc_TypeError, "letters are ints, not %.200s",
                     Py_TYPE(obj)->tp_name);
        return -1;
    }
    *out = PyLong_AsLongAndOverflow(obj, overflow);
    return *out == -1 && PyErr_Occurred() ? -1 : 0;
}

/* Reads one letter into *out; returns -1 with an exception set on failure. */
static inline int
read_letter(PyObject *obj, long *out)
{
    int overflow = 0;

    if (fast_letter(obj, out)) {
        return 0;
    }
    if (slow_letter(obj, out, &overflow) < 0) {
        return -1;
    }
    if (overflow || *out == LONG_MIN) {
        PyErr_SetString(PyExc_OverflowError,
                        "letter code does not fit the compiled kernel");
        return -1;
    }
    return 0;
}

/* The reduced word built so far; every item is in [-LONG_MAX, LONG_MAX]. */
typedef struct {
    long *items;
    Py_ssize_t top;
    Py_ssize_t cap;
} Stack;

/* Makes room for ``extra`` more letters, doubling the capacity as needed. */
static int
stack_reserve(Stack *st, Py_ssize_t extra)
{
    Py_ssize_t need = st->top + extra;
    Py_ssize_t cap = st->cap > 0 ? st->cap : 16;
    long *items;

    if (need <= st->cap) {
        return 0;
    }
    while (cap < need) {
        if (cap > PY_SSIZE_T_MAX / 2 / (Py_ssize_t)sizeof(long)) {
            PyErr_NoMemory();
            return -1;
        }
        cap *= 2;
    }
    items = PyMem_Realloc(st->items, (size_t)cap * sizeof(long));
    if (items == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    st->items = items;
    st->cap = cap;
    return 0;
}

/* Pushes one letter, cancelling it against the top; room must be reserved. */
static inline void
stack_push(Stack *st, long t)
{
    if (st->top > 0 && st->items[st->top - 1] == -t) {
        st->top--;
    }
    else {
        st->items[st->top++] = t;
    }
}

/* A new reference to the int v: the shared one when it has one. */
static inline PyObject *
box_letter(KernelState *state, long v)
{
    /* Unsigned, so that no v overflows: true iff |v| <= SHARED_EDGE. */
    if ((unsigned long)v + SHARED_EDGE <= 2 * SHARED_EDGE) {
        PyObject *letter = state->letters[v + SHARED_EDGE];

        Py_INCREF(letter);
        return letter;
    }
    return PyLong_FromLong(v);
}

/* The stack as a tuple of ints; frees the stack either way. */
static PyObject *
stack_finish(KernelState *state, Stack *st)
{
    PyObject *out = PyTuple_New(st->top);
    Py_ssize_t i;

    for (i = 0; out != NULL && i < st->top; i++) {
        PyObject *letter = box_letter(state, st->items[i]);
        if (letter == NULL) {
            Py_CLEAR(out);
        }
        else {
            PyTuple_SET_ITEM(out, i, letter);
        }
    }
    PyMem_Free(st->items);
    return out;
}

static int
check_nargs(const char *name, Py_ssize_t nargs, Py_ssize_t expected)
{
    if (nargs != expected) {
        PyErr_Format(PyExc_TypeError, "%s() takes %zd arguments (%zd given)",
                     name, expected, nargs);
        return -1;
    }
    return 0;
}

PyDoc_STRVAR(reduce_letters_doc,
"Freely reduce a letter sequence (single left-to-right stack scan).");

static PyObject *
reduce_letters(PyObject *module, PyObject *seq)
{
    Stack st = {NULL, 0, 0};
    PyObject *fast = PySequence_Fast(seq, "reduce_letters expects an iterable");
    Py_ssize_t i;
    long s;

    if (fast == NULL) {
        return NULL;
    }
    if (stack_reserve(&st, PySequence_Fast_GET_SIZE(fast)) < 0) {
        goto fail;
    }
    for (i = 0; i < PySequence_Fast_GET_SIZE(fast); i++) {
        if (read_letter(PySequence_Fast_GET_ITEM(fast, i), &s) < 0) {
            goto fail;
        }
        stack_push(&st, s);
    }
    Py_DECREF(fast);
    return stack_finish(PyModule_GetState(module), &st);
fail:
    Py_DECREF(fast);
    PyMem_Free(st.items);
    return NULL;
}

PyDoc_STRVAR(concat_reduced_doc,
"Concatenate two already-reduced words; only boundary pairs cancel.");

static PyObject *
concat_reduced(PyObject *Py_UNUSED(module), PyObject *const *args,
               Py_ssize_t nargs)
{
    PyObject *fu, *fv, *head, *tail, *out = NULL;
    Py_ssize_t i, j = 0;
    long a, b;

    if (check_nargs("concat_reduced", nargs, 2) < 0) {
        return NULL;
    }
    fu = PySequence_Fast(args[0], "concat_reduced expects sequences");
    if (fu == NULL) {
        return NULL;
    }
    fv = PySequence_Fast(args[1], "concat_reduced expects sequences");
    if (fv == NULL) {
        Py_DECREF(fu);
        return NULL;
    }
    i = PySequence_Fast_GET_SIZE(fu);
    while (i > 0 && j < PySequence_Fast_GET_SIZE(fv)) {
        if (read_letter(PySequence_Fast_GET_ITEM(fu, i - 1), &a) < 0
            || read_letter(PySequence_Fast_GET_ITEM(fv, j), &b) < 0) {
            goto done;
        }
        if (a != -b) {
            break;
        }
        i--;
        j++;
    }
    /* Join the caller's objects, as ``u[:i] + v[j:]`` does. */
    if (j == 0) {
        out = PyNumber_Add(args[0], args[1]);
    }
    else if (i == 0) {
        out = PySequence_GetSlice(args[1], j, PY_SSIZE_T_MAX);
    }
    else {
        head = PySequence_GetSlice(args[0], 0, i);
        tail = head ? PySequence_GetSlice(args[1], j, PY_SSIZE_T_MAX) : NULL;
        out = tail ? PyNumber_Add(head, tail) : NULL;
        Py_XDECREF(head);
        Py_XDECREF(tail);
    }
done:
    Py_DECREF(fu);
    Py_DECREF(fv);
    return out;
}

PyDoc_STRVAR(substitute_doc,
"substitute(word, images, /, *, budget=None)\n--\n\n"
"Replace every letter by its image and reduce.\n\n"
"``images[k]`` is the (reduced) image of the positive letter ``k``; a\n"
"negative letter contributes the inverted image. Only the images of the\n"
"letters in the word are read, in place, and the one stack grows as the\n"
"result does, so the result is always built anew. ``images`` and each\n"
"image are tuples or lists.\n\n"
"A ``budget`` other than None caps the letters the images write before\n"
"they reduce. It is read as an index, and clamped to the range of a C\n"
"ssize_t. A first pass over the word sums the lengths of the images its\n"
"letters use, raising at the first bad word letter what the substitution\n"
"would raise; past the budget it raises ``mcgcalc.errors.ImageBudgetError``\n"
"before any image letter is read.");

/* The image ``code`` uses, borrowed from ``images``, with the letter in *s;
 * NULL with an exception set for a letter that is no int, has no image,
 * or uses an image that is no tuple or list. */
static inline PyObject *
letter_image(PyObject *code, PyObject *images, long *s)
{
    PyObject *img;
    int overflow = 0;

    if (!fast_letter(code, s) && slow_letter(code, s, &overflow) < 0) {
        return NULL;
    }
    /* Code 0 reads images[0], as ``images[-s]`` does in the pure kernel. */
    if (overflow || *s == LONG_MIN
        || (*s > 0 ? *s : -*s) >= PySequence_Fast_GET_SIZE(images)) {
        PyErr_SetString(PyExc_IndexError, "letter code has no image");
        return NULL;
    }
    img = PySequence_Fast_GET_ITEM(images, *s > 0 ? *s : -*s);
    if (!PyTuple_Check(img) && !PyList_Check(img)) {
        PyErr_SetString(PyExc_TypeError, "images are tuples or lists");
        return NULL;
    }
    return img;
}

/* Raises mcgcalc.errors.ImageBudgetError(needed, budget), looked up now. */
static void
raise_budget_error(Py_ssize_t needed, PyObject *budget)
{
    PyObject *errors = PyImport_ImportModule("mcgcalc.errors");
    PyObject *cls, *exc = NULL;

    if (errors == NULL) {
        return;
    }
    cls = PyObject_GetAttrString(errors, "ImageBudgetError");
    if (cls != NULL) {
        exc = PyObject_CallFunction(cls, "nO", needed, budget);
    }
    if (exc != NULL) {
        PyErr_SetObject((PyObject *)Py_TYPE(exc), exc);
    }
    Py_XDECREF(exc);
    Py_XDECREF(cls);
    Py_DECREF(errors);
}

/* Checks the letters ``word`` writes through ``images`` against ``budget``
 * (an int); returns -1 with an exception set when a letter is bad or the
 * sum exceeds the budget. The sum saturates at PY_SSIZE_T_MAX. */
static int
check_budget(PyObject *word, PyObject *images, PyObject *budget)
{
    Py_ssize_t limit = PyNumber_AsSsize_t(budget, NULL);  /* clamps */
    Py_ssize_t i, m, needed = 0;
    long s;

    for (i = 0; i < PySequence_Fast_GET_SIZE(word); i++) {
        PyObject *img = letter_image(PySequence_Fast_GET_ITEM(word, i), images, &s);

        if (img == NULL) {
            return -1;
        }
        m = PySequence_Fast_GET_SIZE(img);
        needed = needed > PY_SSIZE_T_MAX - m ? PY_SSIZE_T_MAX : needed + m;
    }
    if (needed > limit) {
        raise_budget_error(needed, budget);
        return -1;
    }
    return 0;
}

/* Reads the keyword arguments of an op that takes ``npos`` positional
 * arguments and a keyword-only ``budget`` into *budget, borrowed and NULL
 * when absent; returns -1 with TypeError set for other arguments. */
static int
budget_keyword(const char *name, PyObject *const *args, Py_ssize_t nargs,
               PyObject *kwnames, Py_ssize_t npos, PyObject **budget)
{
    Py_ssize_t i;

    /* ``budget`` is keyword-only, so a further positional argument is refused. */
    if (check_nargs(name, nargs, npos) < 0) {
        return -1;
    }
    *budget = NULL;
    for (i = 0; kwnames != NULL && i < PyTuple_GET_SIZE(kwnames); i++) {
        PyObject *key = PyTuple_GET_ITEM(kwnames, i);

        if (!PyUnicode_Check(key) || PyUnicode_CompareWithASCIIString(key, "budget") != 0) {
            PyErr_Format(PyExc_TypeError,
                         "%s() got an unexpected keyword argument '%S'", name, key);
            return -1;
        }
        *budget = args[nargs + i];
    }
    return 0;
}

/* The substitution routine of ``substitute`` and ``format_image``: reduces
 * the images of the letters of ``word`` into *st, within ``budget`` (None
 * or NULL for none); returns -1 with an exception set, and *st freed, on
 * failure. */
static int
reduce_images(Stack *st, PyObject *word, PyObject *images, PyObject *budget)
{
    Py_ssize_t i, k, m;
    long s, t;

    if (!PyTuple_Check(images) && !PyList_Check(images)) {
        PyErr_SetString(PyExc_TypeError, "substitute expects a tuple or list of images");
        return -1;
    }
    if (budget == Py_None) {
        budget = NULL;
    }
    if (budget != NULL && (budget = PyNumber_Index(budget)) == NULL) {
        return -1;
    }
    word = PySequence_Fast(word, "substitute expects an iterable word");
    if (word == NULL) {
        Py_XDECREF(budget);
        return -1;
    }
    if (budget != NULL) {
        int over = check_budget(word, images, budget);

        Py_DECREF(budget);
        if (over < 0) {
            goto fail;
        }
    }
    for (i = 0; i < PySequence_Fast_GET_SIZE(word); i++) {
        PyObject *img = letter_image(PySequence_Fast_GET_ITEM(word, i), images, &s);
        PyObject **items;

        if (img == NULL) {
            goto fail;
        }
        m = PySequence_Fast_GET_SIZE(img);
        items = PySequence_Fast_ITEMS(img);
        if (stack_reserve(st, m) < 0) {
            goto fail;
        }
        if (s > 0) {
            for (k = 0; k < m; k++) {
                if (read_letter(items[k], &t) < 0) {
                    goto fail;
                }
                stack_push(st, t);
            }
        }
        else {
            for (k = m - 1; k >= 0; k--) {
                if (read_letter(items[k], &t) < 0) {
                    goto fail;
                }
                stack_push(st, -t);
            }
        }
    }
    Py_DECREF(word);
    return 0;
fail:
    Py_DECREF(word);
    PyMem_Free(st->items);
    st->items = NULL;
    return -1;
}

static PyObject *
substitute(PyObject *module, PyObject *const *args,
           Py_ssize_t nargs, PyObject *kwnames)
{
    Stack st = {NULL, 0, 0};
    PyObject *budget;

    if (budget_keyword("substitute", args, nargs, kwnames, 2, &budget) < 0
        || reduce_images(&st, args[0], args[1], budget) < 0) {
        return NULL;
    }
    return stack_finish(PyModule_GetState(module), &st);
}

PyDoc_STRVAR(draw_letters_doc,
"Chain ``length`` calls of ``random()`` into the letters of a reduced word.\n\n"
"``letters`` lists each letter next to its inverse, so the inverse of\n"
"``letters[k]`` is ``letters[k ^ 1]``. ``random`` takes no arguments and\n"
"returns a float in [0, 1); it is called once per letter, in order, and\n"
"not at all when ``length`` is 0 or less. The first draw ``u`` picks index\n"
"``int(u * n)``; every later one picks ``j = int(u * (n - 1))`` and skips\n"
"the previous letter's inverse, ``k = j + (j >= k ^ 1)``. ``length`` and\n"
"``letters`` are read whole before the first call.");

static PyObject *
draw_letters(PyObject *module, PyObject *const *args,
             Py_ssize_t nargs)
{
    Stack st = {NULL, 0, 0};
    PyObject *next_uniform, *letters;
    long *table = NULL;
    Py_ssize_t i, j, k = 0, m, n;

    if (check_nargs("draw_letters", nargs, 3) < 0) {
        return NULL;
    }
    next_uniform = args[0];
    m = PyNumber_AsSsize_t(args[1], PyExc_OverflowError);
    if (m == -1 && PyErr_Occurred()) {
        return NULL;
    }
    letters = PySequence_Fast(args[2], "draw_letters expects a sequence of letters");
    if (letters == NULL) {
        return NULL;
    }
    n = PySequence_Fast_GET_SIZE(letters);
    table = PyMem_New(long, n > 0 ? n : 1);
    if (table == NULL) {
        PyErr_NoMemory();
        goto fail;
    }
    for (i = 0; i < n; i++) {
        if (read_letter(PySequence_Fast_GET_ITEM(letters, i), &table[i]) < 0) {
            goto fail;
        }
    }
    /* A length below 0 draws nothing, as ``range(length)`` does. */
    if (m > 0 && n == 0) {
        PyErr_SetString(PyExc_ValueError, "no letters to draw from");
        goto fail;
    }
    if (m > 0 && stack_reserve(&st, m) < 0) {
        goto fail;
    }
    for (i = 0; i < m; i++) {
        /* The one call into Python code; it sees nothing of this call's state. */
        PyObject *draw = PyObject_CallNoArgs(next_uniform);
        double u;

        if (draw == NULL) {
            goto fail;
        }
        if (!PyFloat_Check(draw)) {
            PyErr_Format(PyExc_TypeError, "uniforms are floats, not %.200s",
                         Py_TYPE(draw)->tp_name);
            Py_DECREF(draw);
            goto fail;
        }
        u = PyFloat_AS_DOUBLE(draw);
        Py_DECREF(draw);
        /* Checked before the cast: casting NaN or an out-of-range value is undefined. */
        if (!(u >= 0.0 && u < 1.0)) {
            PyErr_SetString(PyExc_ValueError, "uniforms lie in [0, 1)");
            goto fail;
        }
        if (i == 0) {
            k = (Py_ssize_t)(u * (double)n);
        }
        else {
            j = (Py_ssize_t)(u * (double)(n - 1));
            k = j + (j >= (k ^ 1));
        }
        /* Rounding keeps k below n for any table that fits in memory. */
        if (k >= n) {
            PyErr_SetString(PyExc_IndexError, "draw past the end of the letters");
            goto fail;
        }
        st.items[st.top++] = table[k];
    }
    PyMem_Free(table);
    Py_DECREF(letters);
    return stack_finish(PyModule_GetState(module), &st);
fail:
    PyMem_Free(table);
    PyMem_Free(st.items);
    Py_DECREF(letters);
    return NULL;
}

PyDoc_STRVAR(format_letters_doc,
"format_letters(letters, names, /)\n--\n\n"
"The names of ``letters``, one space apart: ``\" \".join(names[c] for c in letters)``.\n\n"
"``names`` is a tuple of str indexed by the letter itself, so a negative\n"
"letter counts from its end; no letters give \"\". A first pass reads every\n"
"letter and sums the lengths of the names it picks, raising at the first\n"
"letter that is no int (TypeError) or picks no name (IndexError), and only\n"
"then, as the join does, at a name that is no str (TypeError). A second\n"
"pass copies the names into the one new string.");

/* The index in a tuple of ``n`` names that the i-th letter picks, read
 * from ``codes``, objects, when that is given, else from ``letters``, C
 * longs; -1 with an exception set for a letter that is no int or picks no
 * name. */
static inline Py_ssize_t
letter_name(PyObject *const *codes, const long *letters, Py_ssize_t i, Py_ssize_t n)
{
    Py_ssize_t k;
    long s = 0;
    int overflow = 0;

    if (codes == NULL) {
        s = letters[i];
    }
    else if (!fast_letter(codes[i], &s) && slow_letter(codes[i], &s, &overflow) < 0) {
        return -1;
    }
    /* A negative code counts from the end, as a tuple index does. Random
     * signs defeat a branch on the sign, so the index is found without one. */
    k = (Py_ssize_t)s + (s < 0) * n;
    if (overflow || (size_t)k >= (size_t)n) {
        PyErr_SetString(PyExc_IndexError, "letter code has no name");
        return -1;
    }
    return k;
}

/* One name as the second pass writes it, filled when the first pass first
 * meets it: ``span`` is its length plus the space after it (0 until then).
 * A name of at most 7 one-byte characters is also kept in ``text`` with
 * that space, padded to 8 bytes, so that one store writes it: copying the
 * few bytes of a name by length costs a mispredicted branch per letter. */
typedef struct {
    Py_ssize_t span;
    char text[8];
    int short_name;
} NameSlot;

/* Returns -1 with TypeError set unless ``names`` is a tuple. */
static int
check_names(PyObject *names)
{
    if (!PyTuple_Check(names)) {
        PyErr_SetString(PyExc_TypeError, "format_letters expects a tuple of names");
        return -1;
    }
    return 0;
}

/* Fills the slot of a name the first pass meets for the first time, and
 * widens *maxchar to its characters; returns 1 for a name that is no str
 * and -1 with an exception set on failure. */
static NOINLINE int
meet_name(NameSlot *slot, PyObject *name, Py_UCS4 *maxchar)
{
    Py_ssize_t m;

    if (!PyUnicode_Check(name)) {
        return 1;
    }
    if (PyUnicode_READY(name) < 0) {
        return -1;
    }
    m = PyUnicode_GET_LENGTH(name);
    slot->span = m + 1;
    if (PyUnicode_KIND(name) == PyUnicode_1BYTE_KIND && m < 8) {
        memcpy(slot->text, PyUnicode_1BYTE_DATA(name), (size_t)m);
        slot->text[m] = ' ';
        slot->short_name = 1;
    }
    if (PyUnicode_MAX_CHAR_VALUE(name) > *maxchar) {
        *maxchar = PyUnicode_MAX_CHAR_VALUE(name);
    }
    return 0;
}

/* Writes ``name``, of ``m`` characters, at ``pos`` of the text ``data`` of
 * ``size`` characters of ``kind``, with a space after it unless it ends
 * the text. */
static NOINLINE void
copy_name(void *data, int kind, Py_ssize_t pos, Py_ssize_t size, PyObject *name, Py_ssize_t m)
{
    Py_ssize_t j;

    if ((int)PyUnicode_KIND(name) == kind) {
        memcpy((char *)data + pos * kind, PyUnicode_DATA(name), (size_t)(m * kind));
    }
    else {
        for (j = 0; j < m; j++) {
            PyUnicode_WRITE(kind, data, pos + j, PyUnicode_READ_CHAR(name, j));
        }
    }
    if (pos + m < size) {
        PyUnicode_WRITE(kind, data, pos + m, ' ');
    }
}

/* The name writer of ``format_letters`` and ``format_image``: the names
 * in the tuple ``names`` of ``n`` letters, one space apart, as one new
 * string. The letters are ``codes``, objects, when that is given, else
 * ``letters``, C longs. */
static PyObject *
write_names(PyObject *names, Py_ssize_t n, PyObject *const *codes, const long *letters)
{
    PyObject *bad = NULL, *out = NULL;
    NameSlot *slots = NULL, *slot;
    Py_ssize_t i, k, count, size = 0, pos = 0;
    Py_UCS4 maxchar = ' ';
    char *data = NULL;
    int kind, one_byte, met;

    count = PyTuple_GET_SIZE(names);
    slots = PyMem_Calloc(count > 0 ? (size_t)count : 1, sizeof(NameSlot));
    if (slots == NULL) {
        PyErr_NoMemory();
        return NULL;
    }
    /* The length of the text with a space after every name, which
     * saturates at PY_SSIZE_T_MAX (too long for PyUnicode_New), and the
     * widest kind of character it holds. */
    for (i = 0; i < n; i++) {
        k = letter_name(codes, letters, i, count);
        if (k < 0) {
            goto done;
        }
        slot = &slots[k];
        if (slot->span == 0) {
            met = meet_name(slot, PyTuple_GET_ITEM(names, k), &maxchar);
            if (met < 0) {
                goto done;
            }
            if (met > 0) {
                bad = bad != NULL ? bad : PyTuple_GET_ITEM(names, k);
                continue;
            }
        }
        size = size > PY_SSIZE_T_MAX - slot->span ? PY_SSIZE_T_MAX : size + slot->span;
    }
    if (bad != NULL) {
        PyErr_Format(PyExc_TypeError, "names are str, not %.200s",
                     Py_TYPE(bad)->tp_name);
        goto done;
    }
    out = PyUnicode_New(n > 0 ? size - 1 : 0, maxchar);  /* no space after the last */
    if (out == NULL) {
        goto done;
    }
    kind = (int)PyUnicode_KIND(out);
    one_byte = kind == PyUnicode_1BYTE_KIND;
    data = PyUnicode_DATA(out);
    size = PyUnicode_GET_LENGTH(out);
    /* No Python code has run since the first pass, so every letter picks the
     * name it picked there. An 8-byte store stays within the text (never on
     * its closing NUL); later names overwrite its padding. */
    for (i = 0; i < n; i++) {
        k = letter_name(codes, letters, i, count);
        if (k < 0) {
            Py_CLEAR(out);
            goto done;
        }
        slot = &slots[k];
        if ((slot->short_name & one_byte) && pos + 8 <= size) {
            memcpy(data + pos, slot->text, 8);
        }
        else {
            copy_name(data, kind, pos, size, PyTuple_GET_ITEM(names, k), slot->span - 1);
        }
        pos += slot->span;
    }
done:
    PyMem_Free(slots);
    return out;
}

static PyObject *
format_letters(PyObject *Py_UNUSED(module), PyObject *const *args,
               Py_ssize_t nargs)
{
    PyObject *letters, *out;

    if (check_nargs("format_letters", nargs, 2) < 0 || check_names(args[1]) < 0) {
        return NULL;
    }
    letters = PySequence_Fast(args[0], "format_letters expects an iterable of letters");
    if (letters == NULL) {
        return NULL;
    }
    out = write_names(args[1], PySequence_Fast_GET_SIZE(letters),
                      PySequence_Fast_ITEMS(letters), NULL);
    Py_DECREF(letters);
    return out;
}

PyDoc_STRVAR(format_image_doc,
"format_image(word, images, names, /, *, budget=None)\n--\n\n"
"The text of the image of ``word``:\n"
"``format_letters(substitute(word, images, budget=budget), names)``.\n\n"
"The images are reduced into the one stack, as ``substitute`` reduces\n"
"them, and the names are written from that stack, as ``format_letters``\n"
"writes them, so no tuple of the image's letters is made. It raises what\n"
"that composition raises: first the budget and substitution faults,\n"
"then the name faults.");

static PyObject *
format_image(PyObject *Py_UNUSED(module), PyObject *const *args,
             Py_ssize_t nargs, PyObject *kwnames)
{
    Stack st = {NULL, 0, 0};
    PyObject *budget, *out = NULL;

    if (budget_keyword("format_image", args, nargs, kwnames, 3, &budget) < 0
        || reduce_images(&st, args[0], args[1], budget) < 0) {
        return NULL;
    }
    if (check_names(args[2]) == 0) {
        out = write_names(args[2], st.top, NULL, st.items);
    }
    PyMem_Free(st.items);
    return out;
}

PyDoc_STRVAR(read_tokens_doc,
"read_tokens(text, table, /)\n--\n\n"
"The values of the whitespace-separated tokens of ``text``, in order:\n"
"``tuple(map(table.__getitem__, text.split()))``, and () for text without\n"
"a token. ``text`` is a str (TypeError otherwise); a token that ``table``\n"
"lacks raises what ``table[token]`` raises, KeyError for a dict. ASCII\n"
"text is read in place and each distinct token is looked up once, so\n"
"equal tokens give the one value that lookup returned; other text is\n"
"split as ``str.split()`` splits it and every token is looked up.");

/* str.split()'s whitespace among the ASCII characters: \t \n \v \f \r,
 * \x1c to \x1f and the space. */
static const char ascii_space[128] = {
    ['\t'] = 1, ['\n'] = 1, ['\v'] = 1, ['\f'] = 1, ['\r'] = 1,
    [0x1c] = 1, [0x1d] = 1, [0x1e] = 1, [0x1f] = 1, [' '] = 1,
};

/* One distinct token of the text and the value the table gave for it (an
 * owned reference; NULL marks a free slot). ``head`` packs the token's
 * first 8 bytes, so a token of at most 8 bytes is compared without a call. */
typedef struct {
    const char *start;
    Py_ssize_t size;
    uint64_t head;
    uint64_t hash;
    PyObject *value;
} TokenSlot;

/* An open-addressing map from token bytes to values, for one call only: it
 * starts in ``local`` and moves to the heap as it grows. */
#define MEMO_LOCAL 64

typedef struct {
    TokenSlot *slots;
    size_t mask;  /* the capacity, a power of two, minus one */
    Py_ssize_t used;
    TokenSlot local[MEMO_LOCAL];
} TokenMemo;

/* The slot of the token (start, size), or the free slot where it goes. */
static inline TokenSlot *
memo_slot(TokenMemo *memo, const char *start, Py_ssize_t size, uint64_t head,
          uint64_t hash)
{
    size_t i = (size_t)hash & memo->mask;

    for (;;) {
        TokenSlot *slot = &memo->slots[i];

        if (slot->value == NULL
            || (slot->head == head && slot->size == size
                && (size <= 8 || memcmp(slot->start + 8, start + 8, (size_t)(size - 8)) == 0))) {
            return slot;
        }
        i = (i + 1) & memo->mask;
    }
}

/* Doubles the memo's capacity; returns -1 with MemoryError set on failure. */
static int
memo_grow(TokenMemo *memo)
{
    size_t i, capacity = memo->mask + 1;
    TokenSlot *old = memo->slots, *slots;

    if (capacity > PY_SSIZE_T_MAX / 2 / sizeof(TokenSlot)) {
        PyErr_NoMemory();
        return -1;
    }
    slots = PyMem_Calloc(2 * capacity, sizeof(TokenSlot));
    if (slots == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    memo->slots = slots;
    memo->mask = 2 * capacity - 1;
    for (i = 0; i < capacity; i++) {
        if (old[i].value != NULL) {
            *memo_slot(memo, old[i].start, old[i].size, old[i].head, old[i].hash) = old[i];
        }
    }
    if (old != memo->local) {
        PyMem_Free(old);
    }
    return 0;
}

/* Releases the values the memo holds and its heap slots. */
static void
memo_clear(TokenMemo *memo)
{
    size_t i;

    for (i = 0; i <= memo->mask; i++) {
        Py_XDECREF(memo->slots[i].value);
    }
    if (memo->slots != memo->local) {
        PyMem_Free(memo->slots);
    }
}

/* read_tokens on ASCII text, at ``data`` with ``length`` bytes. */
static PyObject *
read_ascii_tokens(const char *data, Py_ssize_t length, PyObject *table)
{
    const char *end = data + length, *p, *start;
    Py_ssize_t k, count = 0, n = 0;
    int here, after_space = 1;
    PyObject *out, *name, *value;
    TokenMemo memo;
    TokenSlot *slot;
    uint64_t head, hash;
    size_t capacity = 8;

    /* Count the tokens, so that the result and the memo are sized once: a
     * token starts at each character that is no space and follows a space
     * or the start. Without a branch, since token lengths vary. */
    for (k = 0; k < length; k++) {
        here = ascii_space[(unsigned char)data[k]];
        count += after_space & !here;
        after_space = here;
    }
    out = PyTuple_New(count);
    if (out == NULL || count == 0) {
        return out;
    }
    while (capacity < MEMO_LOCAL && capacity < 2 * (size_t)count) {
        capacity *= 2;
    }
    memo.slots = memo.local;
    memo.mask = capacity - 1;
    memo.used = 0;
    memset(memo.local, 0, capacity * sizeof(TokenSlot));
    for (p = data; n < count; n++) {
        while (ascii_space[(unsigned char)*p]) {
            p++;
        }
        start = p;
        head = 0;
        for (k = 0; p < end && !ascii_space[(unsigned char)*p]; k++, p++) {
            if (k < 8) {
                head |= (uint64_t)(unsigned char)*p << (8 * k);
            }
        }
        /* The head and the size, and FNV-1a over any later bytes, mixed so
         * that the low bits, which pick the slot, depend on all of them. */
        hash = head ^ (uint64_t)k;
        for (k = 8; k < p - start; k++) {
            hash = (hash ^ (unsigned char)start[k]) * 0x100000001b3ULL;
        }
        hash *= 0x9e3779b97f4a7c15ULL;
        hash ^= hash >> 29;
        slot = memo_slot(&memo, start, p - start, head, hash);
        if (slot->value == NULL) {
            /* The lookup may run Python code: the memo owns what it holds,
             * and the tuple holds only values it owns. */
            name = PyUnicode_New(p - start, 127);
            if (name == NULL) {
                goto fail;
            }
            memcpy(PyUnicode_1BYTE_DATA(name), start, (size_t)(p - start));
            value = PyObject_GetItem(table, name);
            Py_DECREF(name);
            if (value == NULL) {
                goto fail;
            }
            *slot = (TokenSlot){start, p - start, head, hash, value};
            if (++memo.used * 2 > (Py_ssize_t)memo.mask + 1 && memo_grow(&memo) < 0) {
                goto fail;
            }
        }
        else {
            value = slot->value;
        }
        Py_INCREF(value);
        PyTuple_SET_ITEM(out, n, value);
    }
    memo_clear(&memo);
    return out;
fail:
    memo_clear(&memo);
    Py_DECREF(out);
    return NULL;
}

static PyObject *
read_tokens(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *text, *table, *tokens, *token, *value, *out;
    Py_ssize_t i, n;

    if (check_nargs("read_tokens", nargs, 2) < 0) {
        return NULL;
    }
    text = args[0];
    table = args[1];
    if (!PyUnicode_Check(text)) {
        PyErr_Format(PyExc_TypeError, "read_tokens expects str text, not %.200s",
                     Py_TYPE(text)->tp_name);
        return NULL;
    }
    if (PyUnicode_READY(text) < 0) {
        return NULL;
    }
    if (PyUnicode_IS_ASCII(text)) {
        return read_ascii_tokens((const char *)PyUnicode_1BYTE_DATA(text),
                                 PyUnicode_GET_LENGTH(text), table);
    }
    tokens = PyUnicode_Split(text, NULL, -1);
    if (tokens == NULL) {
        return NULL;
    }
    n = PyList_GET_SIZE(tokens);
    out = PyTuple_New(n);
    for (i = 0; out != NULL && i < n; i++) {
        /* held across the lookup, which may run Python code */
        token = PyList_GET_ITEM(tokens, i);
        Py_INCREF(token);
        value = PyObject_GetItem(table, token);
        Py_DECREF(token);
        if (value == NULL) {
            Py_CLEAR(out);
        }
        else {
            PyTuple_SET_ITEM(out, i, value);
        }
    }
    Py_DECREF(tokens);
    return out;
}

static PyMethodDef methods[] = {
    {"reduce_letters", reduce_letters, METH_O, reduce_letters_doc},
    {"concat_reduced", (PyCFunction)(void (*)(void))concat_reduced,
     METH_FASTCALL, concat_reduced_doc},
    {"substitute", (PyCFunction)(void (*)(void))substitute,
     METH_FASTCALL | METH_KEYWORDS, substitute_doc},
    {"draw_letters", (PyCFunction)(void (*)(void))draw_letters, METH_FASTCALL,
     draw_letters_doc},
    {"format_letters", (PyCFunction)(void (*)(void))format_letters, METH_FASTCALL,
     format_letters_doc},
    {"read_tokens", (PyCFunction)(void (*)(void))read_tokens, METH_FASTCALL,
     read_tokens_doc},
    {"format_image", (PyCFunction)(void (*)(void))format_image,
     METH_FASTCALL | METH_KEYWORDS, format_image_doc},
    {NULL, NULL, 0, NULL},
};

static int
exec_module(PyObject *module)
{
    KernelState *state = PyModule_GetState(module);
    long v;

    for (v = -SHARED_EDGE; v <= SHARED_EDGE; v++) {
        state->letters[v + SHARED_EDGE] = PyLong_FromLong(v);
        if (state->letters[v + SHARED_EDGE] == NULL) {
            return -1;
        }
    }
    if (PyModule_AddStringConstant(module, "_SOURCE",
                                   "_wordops_c.c sha256=" SOURCE_SHA256) < 0) {
        return -1;
    }
    return PyModule_AddStringConstant(module, "BACKEND", "c");
}

/* Drops the shared letters; a failed exec_module may have filled only some
 * (the state starts zeroed, and m_free only runs once it is allocated). */
static void
free_module(void *module)
{
    KernelState *state = PyModule_GetState((PyObject *)module);
    int i;

    for (i = 0; i < 2 * SHARED_EDGE + 1; i++) {
        Py_CLEAR(state->letters[i]);
    }
}

static PyModuleDef_Slot slots[] = {
    {Py_mod_exec, (void *)exec_module},
    {0, NULL},
};

static struct PyModuleDef moduledef = {
    PyModuleDef_HEAD_INIT, "_wordops_c",
    "Compiled word kernel; twin of _wordops_py.", sizeof(KernelState),
    methods, slots, NULL, NULL, free_module,
};

PyMODINIT_FUNC
PyInit__wordops_c(void)
{
    return PyModuleDef_Init(&moduledef);
}
