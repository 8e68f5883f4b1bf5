"""The shared lexical rule: token kinds, brace depth, comment-free text."""
from token_walk import tokens, top_level_end

from diagc.lexer import split_top, strip_group


def test_five_token_kinds():
    assert tokens("\\alpha\\{ %c\n  x\\") == ["\\alpha", "\\{", " ", "%c\n", "  ", "x", "\\"]


def test_control_words_keep_isalpha_letters():
    assert tokens("\\x²") == ["\\x", "²"]
    assert tokens("\\²x") == ["\\²", "x"]
    assert tokens("\\éa½b") == ["\\éa", "½", "b"]
    assert tokens("\\x1") == ["\\x", "1"]


def test_percent_is_ordinary_in_comment_free_text():
    assert tokens("a%b}", comments=False) == ["a", "%", "b", "}"]
    assert tokens("a%b}") == ["a", "%b}"]
    assert tokens("\\%x") == ["\\%", "x"]
    assert tokens("½%\\x²%", comments=False) == ["½", "%", "\\x", "²", "%"]


def test_escaped_braces_do_not_nest():
    toks = tokens("{a\\}`b}`c", comments=False)
    assert top_level_end(toks, 0, "`") == 6
    assert top_level_end(toks, 1, "") == 5
    assert split_top("{a\\}`b}`c\\`d", "`") == ["{a\\}`b}", "c\\`d"]
    assert strip_group("{a\\}}") == "a\\}"
    assert strip_group("{a}{b}") == "{a}{b}"
    assert strip_group("{a\\}") == "{a\\}"
