import pytest

from dyckperm import enumerate_updown_avoiders, enumerate_weighted

# The 14-step example used throughout: weights 0,0,1,1,1,1,1,2,2,2,0,2,1,0
# on UUDUDUUUDDUDDD, mapping to 8 13 6 12 11 14 7 10 2 9 4 5 1 3.
EXAMPLE14_TEXT = "UUDUDUUUDDUDDD;0,0,1,1,1,1,1,2,2,2,0,2,1,0"
EXAMPLE14_IMAGE = (8, 13, 6, 12, 11, 14, 7, 10, 2, 9, 4, 5, 1, 3)

# Inputs to the inverse that fail two adjacent checks, each with the text of
# the first: a repeated letter, also not up-down; not up-down, also holding
# 1234; an odd length, also holding 1234; 1234, also with no weighting
# (tests/test_bijection.py shows each second failure)
INVERSE_FIRST_FAILURES = (
    ((3, 3, 1, 2), "input is not a permutation of 1..N"),
    ((1, 2, 3, 4), "not in image: not an up-down permutation"),
    ((1, 4, 2, 6, 3, 7, 5), "not in image: not an up-down permutation"),
    ((1, 3, 2, 5, 4, 6), "not in image: contains an increasing subsequence of length 4"),
)


@pytest.fixture(scope="session")
def wd_pools():
    """All weighted Dyck paths for n <= 4, keyed by n."""
    return {n: list(enumerate_weighted(n)) for n in range(5)}


@pytest.fixture(scope="session")
def perm_pools():
    """All up-down 1234-avoiders for n <= 4, keyed by n."""
    return {n: list(enumerate_updown_avoiders(n)) for n in range(5)}
