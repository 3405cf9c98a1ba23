"""TF.IDF vectors and the length-weighted cosine score on a toy corpus,
plus a miniature of why a globally trained IDF can fix a local mistake.

Run: python demos/02_ranking_scores.py
"""

from bugloc.preprocess import TokenStream
from bugloc.tfidf import (LengthNormalizer, Vocabulary, build_vocabulary,
                          cosine, rvsm, vectorize)


def stream(*tokens):
    return TokenStream(tuple(tokens), "source_file")


def main():
    files = {
        "Scheduler.java": stream("schedul", "job", "queue", "job", "worker"),
        "Parser.java": stream("pars", "token", "stream", "token"),
        "JobMonitor.java": stream("job", "monitor", "alert", "job", "job",
                                  "queue", "worker", "retri", "alert"),
    }
    vocab = build_vocabulary(files.values())
    vectors = {name: vectorize(ts, vocab) for name, ts in files.items()}
    norm = LengthNormalizer.from_counts(len(ts) for ts in files.values())

    bug = vectorize(stream("job", "stuck", "queue"), vocab)
    print("query tokens: job stuck queue ('stuck' is out of vocabulary, dropped)\n")
    print(f"{'file':18s} {'cosine':>8s} {'score':>8s}   (score = logistic(length) * cosine)")
    for name, vec in vectors.items():
        print(f"{name:18s} {cosine(bug, vec):8.4f} {rvsm(bug, vec, norm):8.4f}")

    # --- why global document frequencies matter -------------------------
    # 'handler' is rare inside this project but ubiquitous elsewhere; a
    # local model overrates it, a global one silences it.
    local = build_vocabulary([stream("handler", "handler"),
                              stream("cach", "evict")])
    query = stream("handler", "cach")
    print("\nlocal IDF weights for the query:")
    print("  ", {t: round(w, 3) for t, w in _named(vectorize(query, local), local).items()})

    global_vocab = Vocabulary(
        term_ids=dict(local.term_ids),
        # counted over 200 other-project files: 'handler' is everywhere
        doc_freq=[_df(t, {"handler": 200, "cach": 4, "evict": 3}) for t in sorted(local.term_ids)],
        total_documents=200,
        scope="global",
    )
    print("global IDF weights for the same query:")
    print("  ", {t: round(w, 3) for t, w in _named(vectorize(query, global_vocab), global_vocab).items()})
    print("\nUnder the global model the ubiquitous 'handler' carries ~no "
          "weight, so the match is decided by the informative terms.")


def _named(vec, vocab):
    inverse = {i: t for t, i in vocab.term_ids.items()}
    return {inverse[i]: w for i, w in vec.weights.items()}


def _df(term, table):
    return table[term]


if __name__ == "__main__":
    main()
