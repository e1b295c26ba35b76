"""Unit tests for candidate indexes (blocking)."""

from repro.similarity.blocking import BruteForceIndex, TokenBlockingIndex


class TestBruteForce:
    def test_everything_is_candidate(self):
        index = BruteForceIndex()
        index.add(1, "a")
        index.add(2, "b")
        assert index.candidates("anything") == {1, 2}

    def test_remove(self):
        index = BruteForceIndex()
        index.add(1, "a")
        index.remove(1, "a")
        assert index.candidates("x") == set()

    def test_len(self):
        index = BruteForceIndex()
        index.add(1, "a")
        assert len(index) == 1


class TestTokenBlocking:
    def test_shared_token_generates_candidate(self):
        index = TokenBlockingIndex()
        index.add(1, "red apple")
        index.add(2, "green apple")
        index.add(3, "blue sky")
        assert index.candidates("yellow apple") == {1, 2}

    def test_no_shared_token(self):
        index = TokenBlockingIndex()
        index.add(1, "red apple")
        assert index.candidates("blue sky") == set()

    def test_remove_clears_blocks(self):
        index = TokenBlockingIndex()
        index.add(1, "red apple")
        index.remove(1, "red apple")
        assert index.candidates("red") == set()
        assert index.block_sizes() == {}

    def test_custom_key(self):
        index = TokenBlockingIndex(key=lambda payload: payload)
        index.add(1, frozenset({"x", "y"}))
        assert index.candidates(frozenset({"y"})) == {1}

    def test_stopword_guard(self):
        index = TokenBlockingIndex(max_block_size=2)
        for obj_id in range(5):
            index.add(obj_id, "common token%d" % obj_id)
        # "common" block exceeded the cap, so it stops producing candidates.
        assert index.candidates("common") == set()
        assert index.candidates("token3") == {3}

    def test_multiple_tokens_union(self):
        index = TokenBlockingIndex()
        index.add(1, "alpha beta")
        index.add(2, "gamma delta")
        assert index.candidates("beta gamma") == {1, 2}

    def test_candidate_overlaps_count_every_block(self):
        index = TokenBlockingIndex(max_block_size=2)
        for obj_id in range(5):
            index.add(obj_id, "common token%d" % obj_id)
        index.add(7, "token3 extra")
        tokens, found, shared, sizes = index.candidate_overlaps("common token3 extra")
        assert tokens == frozenset({"common", "token3", "extra"})
        # Candidates obey the stop-word guard, exactly as candidates() ...
        assert found == index.candidates("common token3 extra") == {3, 7}
        assert list(found) == list(index.candidates("common token3 extra"))
        # ... but the shared counts include the oversized "common" block.
        assert shared[3] == 2 and shared[7] == 2 and shared[0] == 1
        assert sizes[3] == 2 and sizes[7] == 2
        index.remove(7, "token3 extra")
        assert 7 not in sizes
