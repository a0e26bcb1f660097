"""Indented JSON text: what ``json.dumps`` writes with an indent of 2.  That
call runs the pure-Python encoder, which holds one list entry per token of
the output; here each container is one join of its items' texts."""
from json.encoder import encode_basestring_ascii as _quote

_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
# The text of a value of each scalar type, by C calls but for a float.
_SCALAR = {str: _quote, int: int.__repr__, bool: ("false", "true").__getitem__,
           type(None): "null".format, float: lambda o: _FLOAT_WORDS.get(r := float.__repr__(o), r)}
_scalar = _SCALAR.get


def dumps_indented(obj, sort_keys: bool = False) -> str:
    """``json.dumps`` of obj with an indent of 2, byte for byte, for obj built
    of dicts with str keys, lists, tuples, str, int, float, bool and None, of
    exactly those types.  Anything else raises TypeError, or is written as
    json.dumps writes it."""
    scalar = _scalar(type(obj))
    return scalar(obj) if scalar else _text(obj, "\n", sort_keys)


def _text(o, pad: str, sort_keys: bool) -> str:
    """o's text, o a container; pad is the newline and indent o starts at."""
    t = type(o)
    if t is not dict and t is not list and t is not tuple:
        raise TypeError(f"Object of type {t.__name__} is not JSON serializable")
    if not o:
        return "{}" if t is dict else "[]"
    inner = pad + "  "
    item_pad = inner + "  "
    is_dict = t is dict
    parts = []
    for k, v in ((sorted(o.items()) if sort_keys else o.items()) if is_dict else enumerate(o)):
        scalar = _scalar(type(v))
        if scalar:
            text = scalar(v)
        elif type(v) is list and v and (
                (first := type(v[0])) is str or first is int and bool not in map(type, v)):
            try:   # strs alone or ints alone, as most lists are: one C join, no call
                text = f"[{item_pad}{(',' + item_pad).join(map(_SCALAR[first], v))}{inner}]"
            except TypeError:   # a later item of another type
                text = _text(v, inner, sort_keys)
        else:
            text = _text(v, inner, sort_keys)
        parts.append(f"{_quote(k)}: {text}" if is_dict else text)
    body = ("," + inner).join(parts)
    del parts   # before the text is copied once more
    return f"{{{inner}{body}{pad}}}" if is_dict else f"[{inner}{body}{pad}]"
