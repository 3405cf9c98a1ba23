import json

import pytest

from bugloc import rank, synth
from bugloc.corpus import load_benchmark
from bugloc.preprocess import preprocess_benchmark


def write_project(root, name, files, bugs):
    """Write one canonical project tree.

    ``files``: {relative path: java text}; ``bugs``: list of report dicts.
    """
    project = root / name
    for rel, text in files.items():
        path = project / "sources" / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    bugs_dir = project / "bugs"
    bugs_dir.mkdir(parents=True, exist_ok=True)
    for bug in bugs:
        (bugs_dir / f"{bug['id']}.json").write_text(json.dumps(bug))
    return project


def java_stub(*identifiers, filler=""):
    body = "\n".join(f"    int {ident};" for ident in identifiers)
    return f"public class Stub {{\n{body}\n{filler}\n}}\n"


def artifacts_of(project, global_vocab=None, dm=None, dbow=None, infer_epochs=None):
    """The project's ``rank.Artifacts``, built from its token streams: the
    scores of its local TF.IDF scope, plus those of its global scope under
    ``global_vocab`` and of its doc vectors inferred with the ``dm`` and
    ``dbow`` models, each when given."""
    artifacts = rank.Artifacts.of(project)
    artifacts.scopes["local"] = rank.tfidf_scores(project, artifacts)
    if global_vocab is not None:
        artifacts.scopes["global"] = rank.tfidf_scores(project, artifacts, global_vocab)
    if dm is not None:
        artifacts.scopes["docvec"] = rank.docvec_scores(
            artifacts, *rank.doc_vectors(project, dm, dbow, infer_epochs))
    return artifacts


@pytest.fixture(scope="session")
def synth_benchmark(tmp_path_factory):
    """Generated 3-project benchmark, loaded and preprocessed once."""
    root = tmp_path_factory.mktemp("synthbench")
    meta = synth.generate_benchmark(root, synth.SynthSpec())
    benchmark = load_benchmark(root)
    preprocess_benchmark(benchmark)
    return root, benchmark, meta
