import json
from collections import Counter

import pytest

from ragrade.cli import main

from conftest import gold_by_answer, rewrite_index_header
from stub_servers import echo_gold_chat_app, fixed_chat_app, mirror_embedding_app


def test_ingest_fixture(corpus_path, tmp_path, capsys):
    out_dir = tmp_path / "runs"
    code = main(["ingest", str(corpus_path), "--out-dir", str(out_dir)])
    assert code == 0
    assert (out_dir / "corpus.jsonl").exists()
    out = capsys.readouterr().out
    assert "train=8" in out and "test_ua=3" in out and "test_uq=3" in out


def test_ingest_invalid_corpus_exits_1(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(
        json.dumps(
            {
                "id": "a1",
                "question": "q",
                "question_id": "q1",
                "reference_answer": "r",
                "student_answer": "s",
                "score": 2.5,
                "label": "correct",
                "feedback": "f",
                "split": "train",
            }
        )
        + "\n",
        encoding="utf-8",
    )
    assert main(["ingest", str(bad), "--out-dir", str(tmp_path / "runs")]) == 1


def test_index_then_vote_grade(corpus_path, tmp_path, capsys):
    out_dir = tmp_path / "runs"
    assert main(["ingest", str(corpus_path), "--out-dir", str(out_dir)]) == 0
    assert main(["index", "--split", "train", "--out-dir", str(out_dir)]) == 0
    assert (out_dir / "index.rgix").exists()

    manifest_path = out_dir / "vote_manifest.json"
    code = main(
        [
            "grade",
            "--mode",
            "vote",
            "--k",
            "5",
            "--split",
            "test_ua",
            "--out-dir",
            str(out_dir),
            "--out",
            str(manifest_path),
        ]
    )
    assert code == 0
    manifest = json.loads(manifest_path.read_text())
    assert len(manifest["items"]) == 3
    assert manifest["config"]["mode"] == "votegrader"
    assert manifest["config"]["k"] == 5
    assert manifest["index_fingerprint"]


_INDEX_CORRUPTIONS = {
    "id_not_in_corpus": "not in the corpus; rebuild with `ragrade index`",
    "id_twice": "corrupt index file: a record id is listed twice",
    "config_missing": "corrupt index file: header field 'config' is missing",
}


@pytest.mark.parametrize("corruption", sorted(_INDEX_CORRUPTIONS))
def test_grade_corrupt_index_exits_1(corruption, corpus_path, tmp_path, capsys):
    out_dir = tmp_path / "runs"
    assert main(["ingest", str(corpus_path), "--out-dir", str(out_dir)]) == 0
    assert main(["index", "--out-dir", str(out_dir)]) == 0

    def corrupt(header):
        if corruption == "id_not_in_corpus":
            header["record_ids"][1] = "not-in-corpus"
        elif corruption == "id_twice":
            header["record_ids"][1] = header["record_ids"][0]
        else:
            del header["config"]

    rewrite_index_header(out_dir / "index.rgix", corrupt)
    capsys.readouterr()
    flags = ["--mode", "vote", "--k", "3", "--split", "test_ua"]
    assert _grade(out_dir, out_dir / "m.json", *flags) == 1
    assert _INDEX_CORRUPTIONS[corruption] in capsys.readouterr().err
    assert not (out_dir / "m.json").exists()


def test_index_defaults_to_train_split(corpus_path, tmp_path, capsys):
    out_dir = tmp_path / "runs"
    assert main(["ingest", str(corpus_path), "--out-dir", str(out_dir)]) == 0
    capsys.readouterr()
    assert main(["index", "--out-dir", str(out_dir)]) == 0
    assert "indexed 8 records" in capsys.readouterr().out
    # a config file's split names the grading split, not the index's
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"split": "test_ua"}), encoding="utf-8")
    assert main(["index", "--config", str(config_path), "--out-dir", str(out_dir)]) == 0
    assert "indexed 8 records" in capsys.readouterr().out


def test_config_file_that_is_not_an_object_exits_1(corpus_path, tmp_path, capsys):
    out_dir = tmp_path / "runs"
    assert main(["ingest", str(corpus_path), "--out-dir", str(out_dir)]) == 0
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(["split"]), encoding="utf-8")
    capsys.readouterr()
    assert main(["index", "--config", str(config_path), "--out-dir", str(out_dir)]) == 1
    assert "must hold a JSON object" in capsys.readouterr().err


def _grade(out_dir, manifest_path, *flags):
    return main(
        ["grade", *flags, "--out-dir", str(out_dir), "--out", str(manifest_path)]
    )


def _parse_paths(manifest):
    return Counter(item["judgment"]["parse_path"] for item in manifest["items"])


def test_manifest_ledger_is_tally_of_parse_paths(
    corpus_path, fixture_corpus, tmp_path, stub_server_factory
):
    out_dir = tmp_path / "runs"
    gold = gold_by_answer(fixture_corpus.records)
    malform = {r.student_answer for r in fixture_corpus.records if r.id == "r09"}
    echo = stub_server_factory(echo_gold_chat_app(gold, malform_answers=malform))
    junk = stub_server_factory(fixed_chat_app("no structure whatsoever"))
    embed_state = {"down": False}
    mirror = mirror_embedding_app(32)

    def embed_app(path, body):
        return (503, {"error": "down"}) if embed_state["down"] else mirror(path, body)

    embed = stub_server_factory(embed_app)
    remote = ["--embed-backend", "remote", "--embed-endpoint", embed.url]

    # the vote run's corpus has one empty test_ua answer, which cannot be embedded
    rows = [json.loads(line) for line in corpus_path.read_text().splitlines()]
    for row in rows:
        if row["id"] == "r10":
            row["student_answer"] = ""
    empty_corpus = tmp_path / "empty_answer.jsonl"
    empty_corpus.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")

    assert main(["ingest", str(corpus_path), "--out-dir", str(out_dir)]) == 0
    assert main(["index", "--split", "train", "--out-dir", str(out_dir)]) == 0
    remote_index = out_dir / "remote.rgix"
    assert main(["index", "--split", "train", "--out-dir", str(out_dir),
                 "--index-path", str(remote_index), *remote]) == 0
    embed_state["down"] = True

    model = ["--endpoint", echo.url, "--model", "stub-model"]
    runs = {
        "rag": (0, ["--mode", "rag", "--k", "3", *model]),
        "junk": (2, ["--mode", "zero-shot", "--endpoint", junk.url]),
        "embed_down": (2, ["--mode", "rag", "--k", "3", *model,
                           "--index-path", str(remote_index), *remote]),
        "vote": (0, ["--mode", "vote", "--k", "3", "--corpus", str(empty_corpus)]),
    }
    seen = {}
    for name, (want_code, flags) in runs.items():
        manifest_path = out_dir / f"{name}.json"
        assert _grade(out_dir, manifest_path, "--split", "test_ua", *flags) == want_code
        manifest = json.loads(manifest_path.read_text())
        paths = _parse_paths(manifest)
        config = manifest["config"]
        key = f"{config['model_id']}|{config['mode']}|{config['k']}"
        assert manifest["ledger"] == {
            key: {
                "total_calls": len(manifest["items"]),
                "typed_failures": paths["fallback"] + paths["failed"],
                "fallback_successes": paths["fallback"],
                "hard_failures": paths["failed"],
            }
        }, name
        seen[name] = paths

    assert seen["rag"] == {"typed": 2, "fallback": 1}
    assert seen["junk"] == {"failed": 3}
    assert seen["embed_down"] == {"failed": 3}
    assert seen["vote"] == {"typed": 2, "failed": 1}


def test_embedding_503_then_200_is_retried_by_index_and_grade(
    corpus_path, fixture_corpus, tmp_path, stub_server_factory, monkeypatch
):
    # each embedding request is refused once with a 503, then answered
    monkeypatch.setattr("ragrade.embedding._BACKOFF", 0.0)
    mirror = mirror_embedding_app(32)
    state = {"flaky": False, "sends": 0}

    def embed_app(path, body):
        state["sends"] += 1
        if state["flaky"] and state["sends"] % 2:
            return 503, {"error": "busy"}
        return mirror(path, body)

    embed = stub_server_factory(embed_app)
    remote = ["--embed-backend", "remote", "--embed-endpoint", embed.url]
    gold = gold_by_answer(fixture_corpus.records)
    runs = {}
    for flaky in (False, True):
        state["flaky"], state["sends"] = flaky, 0
        out_dir = tmp_path / f"flaky_{flaky}"
        chat = stub_server_factory(echo_gold_chat_app(gold))
        assert main(["ingest", str(corpus_path), "--out-dir", str(out_dir)]) == 0
        assert main(["index", "--split", "train", "--out-dir", str(out_dir), *remote]) == 0
        flags = ["--mode", "rag", "--k", "3", "--split", "test_ua", "--endpoint", chat.url,
                 "--concurrency", "1", *remote]
        assert _grade(out_dir, out_dir / "m.json", *flags) == 0
        assert _parse_paths(json.loads((out_dir / "m.json").read_text())) == {"typed": 3}
        runs[flaky] = (
            (out_dir / "index.rgix").read_bytes(),
            [r["body"]["messages"] for r in chat.requests],
            state["sends"],
        )
    assert runs[True][:2] == runs[False][:2]
    assert (runs[False][2], runs[True][2]) == (2, 4)  # index and queries: one retry each


def test_grade_null_content_writes_manifest(corpus_path, tmp_path, stub_server_factory):
    out_dir = tmp_path / "runs"
    server = stub_server_factory(
        lambda path, body: (200, {"choices": [{"message": {"content": None}}]})
    )
    assert main(["ingest", str(corpus_path), "--out-dir", str(out_dir)]) == 0
    manifest_path = out_dir / "m.json"
    flags = ["--mode", "zero-shot", "--split", "test_ua", "--endpoint", server.url]
    assert _grade(out_dir, manifest_path, *flags) == 2  # every item failed
    manifest = json.loads(manifest_path.read_text())
    assert _parse_paths(manifest) == {"failed": 3}


def test_rag_outputs_identical_over_list_and_base64_embeddings(
    corpus_path, fixture_corpus, tmp_path, stub_server_factory
):
    # one embedding server; in "list" mode it drops the client's encoding_format
    mirror = mirror_embedding_app(32)
    state = {"format": None, "replies": set()}

    def embed_app(path, body):
        if state["format"] == "list":
            body = {k: v for k, v in body.items() if k != "encoding_format"}
        status, payload = mirror(path, body)
        state["replies"].update(type(e).__name__ for e in payload["embeddings"])
        return status, payload

    embed = stub_server_factory(embed_app)
    chat = stub_server_factory(echo_gold_chat_app(gold_by_answer(fixture_corpus.records)))
    remote = ["--embed-backend", "remote", "--embed-endpoint", embed.url]
    outputs = {}
    for fmt in ("list", "base64"):
        state["format"], state["replies"] = fmt, set()
        out_dir = tmp_path / fmt
        manifest_path = out_dir / "m.json"
        assert main(["ingest", str(corpus_path), "--out-dir", str(out_dir)]) == 0
        assert main(["index", "--split", "train", "--out-dir", str(out_dir), *remote]) == 0
        flags = ["--mode", "rag", "--k", "3", "--split", "test_ua", "--endpoint", chat.url, *remote]
        assert _grade(out_dir, manifest_path, *flags) == 0
        assert main(["evaluate", str(manifest_path), "--out-dir", str(out_dir)]) == 0
        manifest = json.loads(manifest_path.read_text())
        manifest["created_at"] = "masked"
        outputs[fmt] = (
            (out_dir / "index.rgix").read_bytes(),
            json.dumps(manifest),
            (out_dir / "m.report.json").read_bytes(),
        )
        assert state["replies"] == {"list" if fmt == "list" else "str"}
    assert outputs["list"] == outputs["base64"]


@pytest.mark.parametrize("reply", ["wrong_shape", "zero_norm", "ragged"])
def test_grade_rag_malformed_embedding_reply_fails_items(
    reply, corpus_path, fixture_corpus, tmp_path, stub_server_factory
):
    out_dir = tmp_path / "runs"
    state = {"bad": False}
    mirror = mirror_embedding_app(32)

    def embed_app(path, body):
        if not state["bad"]:
            return mirror(path, body)
        n = len(body["texts"])
        return 200, {
            "wrong_shape": {"embeddings": 5, "tokens": 5},
            "zero_norm": {"embeddings": [[[0.0] * 32]] * n, "tokens": [["x"]] * n},
            "ragged": {"embeddings": [[[1.0, 0.0], [1.0]]] * n, "tokens": [["x", "y"]] * n},
        }[reply]

    embed = stub_server_factory(embed_app)
    chat = stub_server_factory(echo_gold_chat_app(gold_by_answer(fixture_corpus.records)))
    remote = ["--embed-backend", "remote", "--embed-endpoint", embed.url]
    assert main(["ingest", str(corpus_path), "--out-dir", str(out_dir)]) == 0
    assert main(["index", "--out-dir", str(out_dir), *remote]) == 0
    state["bad"] = True
    manifest_path = out_dir / "m.json"
    flags = ["--mode", "rag", "--k", "3", "--split", "test_ua", "--endpoint", chat.url, *remote]
    assert _grade(out_dir, manifest_path, *flags) == 2  # every item failed
    assert _parse_paths(json.loads(manifest_path.read_text())) == {"failed": 3}


@pytest.mark.parametrize(
    "program, message",
    [
        ({"instruction": "Grade.", "demo_record_ids": ["nope"], "dev_accuracy": 1.0}, "'nope'"),
        ({"instruction": "Grade.", "dev_accuracy": 1.0}, "malformed program file"),
        ({"instruction": "Grade.", "demo_record_ids": "r01", "dev_accuracy": 1.0}, "malformed"),
        ({"instruction": 5, "demo_record_ids": [], "dev_accuracy": 1.0}, "malformed"),
    ],
)
def test_grade_bad_program_exits_1(program, message, corpus_path, tmp_path, capsys):
    out_dir = tmp_path / "runs"
    assert main(["ingest", str(corpus_path), "--out-dir", str(out_dir)]) == 0
    program_path = tmp_path / "program.json"
    program_path.write_text(json.dumps(program), encoding="utf-8")
    flags = ["--mode", "optimized", "--program", str(program_path), "--split", "test_ua",
             "--endpoint", "http://127.0.0.1:9"]
    assert _grade(out_dir, out_dir / "m.json", *flags) == 1
    assert message in capsys.readouterr().err


def test_grade_max_retries_zero_exits_1(corpus_path, tmp_path, capsys):
    out_dir = tmp_path / "runs"
    assert main(["ingest", str(corpus_path), "--out-dir", str(out_dir)]) == 0
    flags = ["--mode", "zero-shot", "--endpoint", "http://127.0.0.1:9", "--max-retries", "0"]
    assert _grade(out_dir, out_dir / "m.json", *flags) == 1
    assert "max_retries" in capsys.readouterr().err


def test_grade_rag_without_index_exits_1(corpus_path, tmp_path, capsys):
    out_dir = tmp_path / "runs"
    assert main(["ingest", str(corpus_path), "--out-dir", str(out_dir)]) == 0
    code = main(
        [
            "grade",
            "--mode",
            "rag",
            "--k",
            "3",
            "--endpoint",
            "http://127.0.0.1:9",
            "--out-dir",
            str(out_dir),
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "ragrade index" in err  # actionable: tells the user what to run


def test_grade_zero_shot_without_endpoint_exits_1(corpus_path, tmp_path, capsys):
    out_dir = tmp_path / "runs"
    assert main(["ingest", str(corpus_path), "--out-dir", str(out_dir)]) == 0
    assert main(["grade", "--mode", "zero-shot", "--out-dir", str(out_dir)]) == 1


def test_grade_and_evaluate_echo_stub(
    corpus_path, fixture_corpus, tmp_path, stub_server_factory, capsys
):
    out_dir = tmp_path / "runs"
    gold = gold_by_answer(fixture_corpus.records)
    server = stub_server_factory(echo_gold_chat_app(gold))
    assert main(["ingest", str(corpus_path), "--out-dir", str(out_dir)]) == 0
    assert main(["index", "--split", "train", "--out-dir", str(out_dir)]) == 0

    manifest_path = out_dir / "manifest.json"
    code = main(
        [
            "grade",
            "--mode",
            "rag",
            "--k",
            "3",
            "--split",
            "test_ua",
            "--endpoint",
            server.url,
            "--model",
            "stub-model",
            "--out-dir",
            str(out_dir),
            "--out",
            str(manifest_path),
        ]
    )
    assert code == 0

    code = main(["evaluate", str(manifest_path), "--out-dir", str(out_dir)])
    assert code == 0
    report = json.loads((out_dir / "manifest.report.json").read_text())
    assert report["accuracy"] == 1.0
    assert report["rmse"] == 0.0
    out = capsys.readouterr().out
    assert "acc=1.000" in out


def test_evaluate_with_text_metrics(
    corpus_path, fixture_corpus, tmp_path, stub_server_factory
):
    out_dir = tmp_path / "runs"
    gold = gold_by_answer(fixture_corpus.records)
    server = stub_server_factory(echo_gold_chat_app(gold))
    assert main(["ingest", str(corpus_path), "--out-dir", str(out_dir)]) == 0
    manifest_path = out_dir / "m.json"
    assert (
        main(
            [
                "grade",
                "--mode",
                "zero-shot",
                "--split",
                "test_uq",
                "--endpoint",
                server.url,
                "--out-dir",
                str(out_dir),
                "--out",
                str(manifest_path),
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "evaluate",
                str(manifest_path),
                "--with-text-metrics",
                "--out-dir",
                str(out_dir),
            ]
        )
        == 0
    )
    report = json.loads((out_dir / "m.report.json").read_text())
    # echo stub returns gold feedback verbatim -> perfect text metrics
    assert report["bleu"] == pytest.approx(100.0, abs=1e-6)
    assert report["rouge2_f1"] == pytest.approx(1.0)
    assert report["embedsim_f1"] == pytest.approx(1.0, abs=1e-6)
    assert "bleu_signature" in report


def test_report_over_two_manifests(
    corpus_path, fixture_corpus, tmp_path, stub_server_factory, capsys
):
    out_dir = tmp_path / "runs"
    gold = gold_by_answer(fixture_corpus.records)
    server = stub_server_factory(echo_gold_chat_app(gold))
    assert main(["ingest", str(corpus_path), "--out-dir", str(out_dir)]) == 0
    paths = []
    for split in ("test_ua", "test_uq"):
        path = out_dir / f"{split}.json"
        paths.append(str(path))
        assert (
            main(
                [
                    "grade",
                    "--mode",
                    "zero-shot",
                    "--split",
                    split,
                    "--endpoint",
                    server.url,
                    "--out-dir",
                    str(out_dir),
                    "--out",
                    str(path),
                ]
            )
            == 0
        )
    code = main(["report", *paths, "--out-dir", str(out_dir)])
    assert code == 0
    assert (out_dir / "report.csv").exists()
    assert (out_dir / "report.txt").exists()
    out = capsys.readouterr().out
    assert "test_ua" in out and "test_uq" in out


def test_optimize_subcommand(corpus_path, fixture_corpus, tmp_path, stub_server_factory):
    out_dir = tmp_path / "runs"
    gold = gold_by_answer(fixture_corpus.records)
    server = stub_server_factory(echo_gold_chat_app(gold))
    assert main(["ingest", str(corpus_path), "--out-dir", str(out_dir)]) == 0
    program_path = out_dir / "program.json"
    code = main(
        [
            "optimize",
            "--budget",
            "3",
            "--k-max",
            "2",
            "--dev-count",
            "3",
            "--endpoint",
            server.url,
            "--seed",
            "9",
            "--out-dir",
            str(out_dir),
            "--out",
            str(program_path),
        ]
    )
    assert code == 0
    program = json.loads(program_path.read_text())
    assert program["dev_accuracy"] == 1.0
    assert len(program["trace"]) == 3

    # reuse the program for grading
    manifest_path = out_dir / "opt_manifest.json"
    code = main(
        [
            "grade",
            "--mode",
            "optimized",
            "--program",
            str(program_path),
            "--split",
            "test_uq",
            "--endpoint",
            server.url,
            "--out-dir",
            str(out_dir),
            "--out",
            str(manifest_path),
        ]
    )
    assert code == 0
    assert json.loads(manifest_path.read_text())["config"]["mode"] == "optimized"


@pytest.mark.parametrize(
    "flag, value, message",
    [("--dev-count", "-1", "--dev-count must be >= 1"), ("--k-max", "-1", "k_max must be >= 0")],
)
def test_optimize_bad_count_exits_1(flag, value, message, corpus_path, tmp_path, capsys):
    out_dir = tmp_path / "runs"
    assert main(["ingest", str(corpus_path), "--out-dir", str(out_dir)]) == 0
    code = main(["optimize", flag, value, "--endpoint", "http://127.0.0.1:9", "--out-dir", str(out_dir)])
    assert code == 1
    assert message in capsys.readouterr().err
    assert not list(out_dir.glob("program_*.json"))


def test_config_file_with_flag_override(
    corpus_path, fixture_corpus, tmp_path, stub_server_factory
):
    out_dir = tmp_path / "runs"
    gold = gold_by_answer(fixture_corpus.records)
    server = stub_server_factory(echo_gold_chat_app(gold))
    config = {
        "corpus": str(corpus_path),
        "out_dir": str(out_dir),
        "endpoint": server.url,
        "model": "from-config",
        "split": "test_ua",
        "mode": "zero-shot",
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    manifest_path = out_dir / "m.json"
    code = main(
        [
            "grade",
            "--config",
            str(config_path),
            "--model",
            "from-flag",  # flag beats file
            "--out",
            str(manifest_path),
        ]
    )
    assert code == 0
    manifest = json.loads(manifest_path.read_text())
    assert manifest["config"]["model_id"] == "from-flag"
    assert manifest["config"]["split"] == "test_ua"  # from file


def test_usage_errors_exit_1(capsys):
    assert main(["not-a-command"]) == 1
    assert main(["grade", "--mode", "bogus"]) == 1


def test_unknown_manifest_exits_1(tmp_path):
    assert main(["evaluate", str(tmp_path / "missing.json")]) == 1


_MALFORMED_MANIFESTS = {
    "not_an_object": [{"config": {"mode": "rag"}, "items": []}],
    "item_without_judgment": {
        "manifest_version": 1,
        "config": {"mode": "rag"},
        "items": [{"id": "a1", "gold_label": "correct", "gold_score": 1.0}],
    },
}


@pytest.mark.parametrize("command", ["evaluate", "report"])
@pytest.mark.parametrize("malformed", sorted(_MALFORMED_MANIFESTS))
def test_malformed_manifest_exits_1(command, malformed, tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(_MALFORMED_MANIFESTS[malformed]), encoding="utf-8")
    assert main([command, str(path), "--out-dir", str(tmp_path / "out")]) == 1
    assert "manifest" in capsys.readouterr().err
