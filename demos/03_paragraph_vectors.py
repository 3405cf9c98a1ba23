"""Train tiny paragraph-vector models and poke at what they learn.

Run: python demos/03_paragraph_vectors.py
"""

import numpy as np

from bugloc.embedding import (EmbeddingConfig, PV_DBOW, PV_DM,
                              combined_vector, doc_cosine, infer_vector, train)

# three topics, four documents each
DOCS = {
    "net-0": "socket connect timeout retry socket connect".split(),
    "net-1": "connect socket handshake timeout retry".split(),
    "net-2": "timeout retry socket reconnect handshake".split(),
    "net-3": "handshake socket connect reconnect".split(),
    "ui-0": "button render layout click button".split(),
    "ui-1": "click layout render widget button".split(),
    "ui-2": "render widget layout repaint click".split(),
    "ui-3": "repaint widget button layout".split(),
    "db-0": "query index transaction commit query".split(),
    "db-1": "commit transaction rollback query index".split(),
    "db-2": "index rollback transaction query".split(),
    "db-3": "rollback commit index transaction".split(),
}


def main():
    config = EmbeddingConfig(vector_size=24, alpha=0.06, window=3, min_count=1,
                             negative=4, epochs=120, seed=13)
    ids = sorted(DOCS)
    corpus = [DOCS[i] for i in ids]

    dm = train(corpus, config, PV_DM, track_loss=True)
    dbow = train(corpus, config, PV_DBOW, track_loss=True)
    print(f"PV-DM   corpus loss {dm.initial_loss:.3f} -> {dm.final_loss:.3f}")
    print(f"PV-DBOW corpus loss {dbow.initial_loss:.3f} -> {dbow.final_loss:.3f}")

    probe = "socket timeout reconnect retry".split()
    vec = combined_vector(probe, dm, dbow)
    print(f"\nprobe {' '.join(probe)!r} -> {vec.values.shape[0]}-dim combined vector")

    print("nearest trained documents (combined DM+DBOW space):")
    sims = []
    for i, doc_id in enumerate(ids):
        trained = combined_vector(corpus[i], dm, dbow)
        sims.append((doc_cosine(vec, trained), doc_id))
    for sim, doc_id in sorted(sims, reverse=True)[:5]:
        print(f"  {doc_id:6s} {sim:+.3f}")

    oov = infer_vector(["completely", "unknown", "words"], dm)
    print(f"\nall-unknown stream -> zero vector, flagged oov={oov.oov}, "
          f"norm={np.linalg.norm(oov.values):.1f}")


if __name__ == "__main__":
    main()
