import pytest
from hypothesis import settings

from deltalens.awfs import e_object
from deltalens.laws import (
    corpus_functors,
    corpus_lenses,
    corpus_squares,
    default_scope,
)

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def scope():
    return default_scope()


@pytest.fixture(scope="session")
def corpus_funs(scope):
    functors, skipped = corpus_functors(scope)
    assert not skipped
    return functors


@pytest.fixture(scope="session")
def corpus_sqs(scope, corpus_funs):
    return corpus_squares(scope, corpus_funs)


@pytest.fixture(scope="session")
def corpus_lens_list(scope, corpus_funs):
    return corpus_lenses(scope, corpus_funs)


@pytest.fixture(scope="session")
def pinned_depth_3(corpus_funs):
    """The functor rf of E(lf of f) for f = walking-iso->walking-iso#1,
    whose glued category, at depth 3, has 32,768 composable pairs."""
    f = dict(corpus_funs)["walking-iso->walking-iso#1"]
    return e_object(e_object(f).lf).rf
