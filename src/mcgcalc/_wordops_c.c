/* Compiled word kernel.
 *
 * Twin of ``_wordops_py``: the same four functions with the same results,
 * with the reduction stack held in a C array. Letters are nonzero signed
 * integers; a letter and its negative cancel. Three ops reduce, join and
 * substitute words; ``draw_letters`` calls a uniform source, such as a
 * bound ``Random.random``, and turns its draws into the letters of a
 * random reduced word.
 *
 * ``substitute`` also checks a letter budget, given by keyword only: a
 * first pass sums the lengths of the images the word uses and raises
 * ``mcgcalc.errors.ImageBudgetError``, looked up when it is raised, past
 * the budget, before any image letter is read or the result allocated.
 *
 * Invalid input raises the pure kernel's exception type. Letters are read
 * as C longs in [-LONG_MAX, LONG_MAX], so negating one is always defined;
 * one outside that range raises OverflowError. Only ints are read inside
 * the three word loops, so no Python code runs there and borrowed items
 * stay valid. ``draw_letters`` runs Python code once per letter: its loop
 * calls ``random`` with ``PyObject_CallNoArgs``. It copies the letters
 * into a C array before the first call and keeps the drawn letters in a
 * C array until the last, so that call sees none of its state. Each draw
 * is an owned reference: it must be a float in [0, 1), its value is read,
 * and it is released before the next call, on failure too.
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

/* A build by hand does not know its source's hash. */
#ifndef SOURCE_SHA256
#define SOURCE_SHA256 "unknown"
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

/* Reads one letter into *out; returns -1 with an exception set on failure. */
static inline int
read_letter(PyObject *obj, long *out)
{
    int overflow;
    long value;

    if (fast_letter(obj, out)) {
        return 0;
    }
    if (!PyLong_Check(obj)) {
        PyErr_Format(PyExc_TypeError, "letters are ints, not %.200s",
                     Py_TYPE(obj)->tp_name);
        return -1;
    }
    value = PyLong_AsLongAndOverflow(obj, &overflow);
    if (value == -1 && PyErr_Occurred()) {
        return -1;
    }
    if (overflow || value == LONG_MIN) {
        PyErr_SetString(PyExc_OverflowError,
                        "letter code does not fit the compiled kernel");
        return -1;
    }
    *out = value;
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

    if (!fast_letter(code, s)) {
        if (!PyLong_Check(code)) {
            PyErr_Format(PyExc_TypeError, "letters are ints, not %.200s",
                         Py_TYPE(code)->tp_name);
            return NULL;
        }
        *s = PyLong_AsLongAndOverflow(code, &overflow);
        if (*s == -1 && PyErr_Occurred()) {
            return NULL;
        }
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

static PyObject *
substitute(PyObject *module, PyObject *const *args,
           Py_ssize_t nargs, PyObject *kwnames)
{
    Stack st = {NULL, 0, 0};
    PyObject *word, *images, *budget = NULL;
    Py_ssize_t i, k, m;
    long s, t;

    /* ``budget`` is keyword-only, so a third positional argument is refused. */
    if (check_nargs("substitute", nargs, 2) < 0) {
        return NULL;
    }
    for (i = 0; kwnames != NULL && i < PyTuple_GET_SIZE(kwnames); i++) {
        PyObject *key = PyTuple_GET_ITEM(kwnames, i);

        if (!PyUnicode_Check(key) || PyUnicode_CompareWithASCIIString(key, "budget") != 0) {
            PyErr_Format(PyExc_TypeError,
                         "substitute() got an unexpected keyword argument '%S'", key);
            return NULL;
        }
        budget = args[nargs + i];
    }
    images = args[1];
    if (!PyTuple_Check(images) && !PyList_Check(images)) {
        PyErr_SetString(PyExc_TypeError, "substitute expects a tuple or list of images");
        return NULL;
    }
    if (budget == Py_None) {
        budget = NULL;
    }
    if (budget != NULL && (budget = PyNumber_Index(budget)) == NULL) {
        return NULL;
    }
    word = PySequence_Fast(args[0], "substitute expects an iterable word");
    if (word == NULL) {
        Py_XDECREF(budget);
        return NULL;
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
        if (stack_reserve(&st, m) < 0) {
            goto fail;
        }
        if (s > 0) {
            for (k = 0; k < m; k++) {
                if (read_letter(items[k], &t) < 0) {
                    goto fail;
                }
                stack_push(&st, t);
            }
        }
        else {
            for (k = m - 1; k >= 0; k--) {
                if (read_letter(items[k], &t) < 0) {
                    goto fail;
                }
                stack_push(&st, -t);
            }
        }
    }
    Py_DECREF(word);
    return stack_finish(PyModule_GetState(module), &st);
fail:
    Py_DECREF(word);
    PyMem_Free(st.items);
    return NULL;
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

static PyMethodDef methods[] = {
    {"reduce_letters", reduce_letters, METH_O, reduce_letters_doc},
    {"concat_reduced", (PyCFunction)(void (*)(void))concat_reduced,
     METH_FASTCALL, concat_reduced_doc},
    {"substitute", (PyCFunction)(void (*)(void))substitute,
     METH_FASTCALL | METH_KEYWORDS, substitute_doc},
    {"draw_letters", (PyCFunction)(void (*)(void))draw_letters, METH_FASTCALL,
     draw_letters_doc},
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
