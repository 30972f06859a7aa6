import meshmind
from meshmind import env


def test_every_exported_name_resolves():
    assert len(set(meshmind.__all__)) == len(meshmind.__all__)
    for name in meshmind.__all__:
        assert hasattr(meshmind, name), name


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from meshmind import *", namespace)
    assert set(meshmind.__all__) <= namespace.keys()


def test_removed_names_are_not_exported():
    for name in ("PerceptVector", "Sample", "StateCodec", "detect_unsatisfactory", "greedy"):
        assert not hasattr(meshmind, name), name
    # snapshots are read by harness.load_snapshot and knowledge_base_from_snapshot
    for owner, name in ((meshmind.KnowledgeBase, "from_snapshot"),
                        (meshmind.KnowledgeBase, "load"), (env, "action_from_dict")):
        assert not hasattr(owner, name), name
