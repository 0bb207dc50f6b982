import csv
import json
import os
import subprocess
import sys
import zlib
from collections import Counter
from pathlib import Path

import pytest

from ragrade import dataset
from ragrade.cli import main

from conftest import gold_by_answer, rewrite_index_header
from stub_servers import echo_gold_chat_app, fixed_chat_app, mirror_embedding_app


def test_ingest_fixture(corpus_path, tmp_path, capsys):
    out_dir = tmp_path / "runs"
    code = main(["ingest", str(corpus_path), "--out-dir", str(out_dir)])
    assert code == 0
    assert (out_dir / "corpus.cache").exists()
    assert not (out_dir / "corpus.jsonl").exists()
    out = capsys.readouterr().out
    assert "train=8" in out and "test_ua=3" in out and "test_uq=3" in out


def _rewrite_cache(path, header=None, columns=None):
    """Rewrite the corpus cache at ``path``; the crc32 is recomputed."""
    header_line, body = path.read_bytes().split(b"\n", 1)
    lines = body.splitlines(keepends=True)
    if columns is not None:
        lines = columns(lines)
    body = b"".join(lines)
    fields = {**json.loads(header_line), "crc32": zlib.crc32(body), **(header or {})}
    path.write_bytes(json.dumps(fields).encode() + b"\n" + body)


def _flip_body_byte(path):
    data = bytearray(path.read_bytes())
    data[data.index(b"\n") + 5] ^= 0x01
    path.write_bytes(bytes(data))


_CACHE_CORRUPTIONS = {
    "flipped_body_byte": _flip_body_byte,
    "truncated": lambda p: p.write_bytes(p.read_bytes()[:-40]),
    "empty": lambda p: p.write_bytes(b""),
    "header_not_json": lambda p: p.write_bytes(b"corpus\n" + p.read_bytes().split(b"\n", 1)[1]),
    "other_version": lambda p: _rewrite_cache(p, header={"version": 2}),
    "other_format": lambda p: _rewrite_cache(p, header={"format": "jsonl"}),
    "eight_columns": lambda p: _rewrite_cache(p, columns=lambda lines: lines[:8]),
    "record_count": lambda p: _rewrite_cache(p, header={"records": 15}),
    "old_jsonl_only": lambda p: p.rename(p.with_name("corpus.jsonl")),
}


@pytest.mark.parametrize("corruption", sorted(_CACHE_CORRUPTIONS))
def test_bad_corpus_cache_exits_1_with_reingest_message(corruption, corpus_path, tmp_path, capsys):
    out_dir = tmp_path / "runs"
    assert main(["ingest", str(corpus_path), "--out-dir", str(out_dir)]) == 0
    _CACHE_CORRUPTIONS[corruption](out_dir / "corpus.cache")
    name = "corpus.jsonl" if corruption == "old_jsonl_only" else "corpus.cache"
    capsys.readouterr()
    commands = [
        ["index", "--out-dir", str(out_dir)],
        ["grade", "--mode", "vote", "--k", "3", "--out-dir", str(out_dir)],
        ["optimize", "--endpoint", "http://127.0.0.1:9", "--out-dir", str(out_dir)],
    ]
    for argv in commands:
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == (
            f"error: {out_dir / name} is not a current corpus cache; re-run `ragrade ingest`\n"
        )


def test_invalid_corpus_flag_is_parsed_despite_a_valid_cache(corpus_path, tmp_path, capsys):
    out_dir = tmp_path / "runs"
    assert main(["ingest", str(corpus_path), "--out-dir", str(out_dir)]) == 0
    bad = tmp_path / "bad.jsonl"
    bad.write_text(corpus_path.read_text(encoding="utf-8").replace('"score": 1.0', '"score": 2.5', 1))
    capsys.readouterr()
    assert main(["index", "--corpus", str(bad), "--out-dir", str(out_dir)]) == 1
    assert "error: row 1: score 2.5 outside [0, 1]" in capsys.readouterr().err
    assert _grade(out_dir, out_dir / "m.json", "--corpus", str(bad), "--mode", "vote") == 1
    assert "error: row 1: score 2.5 outside [0, 1]" in capsys.readouterr().err


def test_cache_path_neither_parses_rows_nor_validates(corpus_path, tmp_path, monkeypatch):
    out_dir = tmp_path / "runs"
    assert main(["ingest", str(corpus_path), "--out-dir", str(out_dir)]) == 0

    def boom(*args, **kwargs):
        raise AssertionError("the corpus cache was parsed or validated again")

    monkeypatch.setattr(dataset, "parse_row", boom)
    monkeypatch.setattr(dataset.Corpus, "validate", boom)
    assert main(["index", "--out-dir", str(out_dir)]) == 0
    assert _grade(out_dir, out_dir / "m.json", "--mode", "vote", "--k", "3") == 0
    assert len(json.loads((out_dir / "m.json").read_text())["items"]) == 3


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


@pytest.mark.parametrize("bad_line", ["5", '{"id": "a1",'])
def test_ingest_row_that_is_not_a_json_object_exits_1(tmp_path, capsys, bad_line):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(bad_line + "\n", encoding="utf-8")
    assert main(["ingest", str(bad), "--out-dir", str(tmp_path / "runs")]) == 1
    assert "error: row 1: " in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("index", "embed_dim", None),
        ("grade", "seed", "seven"),
        ("grade", "k", 2.5),
        ("grade", "temperature", [0.0]),
        ("grade", "max_tokens", True),
        ("grade", "timeout", {"s": 5}),
        ("grade", "max_retries", "3.5"),
        ("grade", "concurrency", "two"),
        ("optimize", "budget", None),
        ("optimize", "k_max", "1e400"),
        ("optimize", "dev_count", 1e400),
    ],
)
def test_config_file_number_of_a_wrong_type_exits_1(
    command, key, value, corpus_path, tmp_path, capsys
):
    out_dir = tmp_path / "runs"
    assert main(["ingest", str(corpus_path), "--out-dir", str(out_dir)]) == 0
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({key: value}), encoding="utf-8")
    capsys.readouterr()
    flags = ["--config", str(config_path), "--out-dir", str(out_dir)]
    if command != "index":
        flags += ["--endpoint", "http://127.0.0.1:9"]
    assert main([command, *flags]) == 1
    assert f"config key {key!r}" in capsys.readouterr().err


def test_config_file_numbers_convert_to_their_key_types(
    corpus_path, fixture_corpus, tmp_path, stub_server_factory
):
    out_dir = tmp_path / "runs"
    server = stub_server_factory(echo_gold_chat_app(gold_by_answer(fixture_corpus.records)))
    config = {"temperature": 0, "seed": "7", "concurrency": 2.0, "embed_dim": 32}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["ingest", str(corpus_path), "--out-dir", str(out_dir)]) == 0
    flags = ["--config", str(config_path), "--mode", "zero-shot", "--split", "test_ua",
             "--endpoint", server.url]
    assert _grade(out_dir, out_dir / "m.json", *flags) == 0
    run_config = json.loads((out_dir / "m.json").read_text())["config"]
    assert (run_config["temperature"], run_config["seed"], run_config["embed_dim"]) == (0.0, 7, 32)
    assert isinstance(run_config["temperature"], float)


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
    monkeypatch.setattr("ragrade.llmclient._BACKOFF", 0.0)
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
            # the two pool threads may start items in either order
            sorted(json.dumps(r["body"], sort_keys=True) for r in chat.requests),
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


def test_grade_optimized_refuses_a_graded_record_as_demo(
    corpus_path, fixture_corpus, tmp_path, stub_server_factory, capsys
):
    out_dir = tmp_path / "runs"
    server = stub_server_factory(echo_gold_chat_app(gold_by_answer(fixture_corpus.records)))
    assert main(["ingest", str(corpus_path), "--out-dir", str(out_dir)]) == 0
    program = {"instruction": "Grade.", "demo_record_ids": ["r01", "r02"], "dev_accuracy": 1.0}
    program_path = tmp_path / "program.json"
    program_path.write_text(json.dumps(program), encoding="utf-8")
    flags = ["--mode", "optimized", "--program", str(program_path), "--split", "train",
             "--endpoint", server.url]
    assert _grade(out_dir, out_dir / "m.json", *flags) == 1
    assert "'r01', 'r02'" in capsys.readouterr().err
    assert server.requests == [] and not (out_dir / "m.json").exists()


def test_grade_max_retries_zero_exits_1(corpus_path, tmp_path, capsys):
    out_dir = tmp_path / "runs"
    assert main(["ingest", str(corpus_path), "--out-dir", str(out_dir)]) == 0
    flags = ["--mode", "zero-shot", "--endpoint", "http://127.0.0.1:9", "--max-retries", "0"]
    assert _grade(out_dir, out_dir / "m.json", *flags) == 1
    assert "max_retries" in capsys.readouterr().err


def test_grade_temperature_nan_exits_1_before_any_request(
    corpus_path, tmp_path, stub_server_factory, capsys
):
    server = stub_server_factory(fixed_chat_app("unused"))
    out_dir = tmp_path / "runs"
    flags = ["--corpus", str(corpus_path), "--mode", "zero-shot", "--endpoint", server.url,
             "--temperature", "nan"]
    assert _grade(out_dir, out_dir / "m.json", *flags) == 1
    assert "temperature" in capsys.readouterr().err
    assert server.requests == [] and not (out_dir / "m.json").exists()


def test_ingest_reads_a_csv_suffix_as_csv(fixture_corpus, tmp_path):
    rows = [rec.to_row(fixture_corpus.split_assignment[rec.id]) for rec in fixture_corpus.records]
    source = tmp_path / "corpus.csv"
    with open(source, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    assert main(["ingest", str(source), "--out-dir", str(tmp_path / "by_suffix")]) == 0
    assert main(["ingest", str(source), "--format", "csv", "--out-dir", str(tmp_path / "by_flag")]) == 0
    cache = (tmp_path / "by_suffix" / "corpus.cache").read_bytes()
    assert cache == (tmp_path / "by_flag" / "corpus.cache").read_bytes()


def test_grade_with_out_elsewhere_leaves_the_working_directory_empty(
    corpus_path, fixture_corpus, tmp_path, stub_server_factory, monkeypatch
):
    server = stub_server_factory(echo_gold_chat_app(gold_by_answer(fixture_corpus.records)))
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    out = tmp_path / "elsewhere" / "m.json"  # its directory is made as needed
    argv = ["grade", "--corpus", str(corpus_path), "--mode", "zero-shot", "--split", "test_ua",
            "--endpoint", server.url, "--out", str(out)]
    assert main(argv) == 0
    assert len(json.loads(out.read_text())["items"]) == 3
    assert list(cwd.iterdir()) == []


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


def test_modules_without_arrays_load_no_numpy():
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    src = str(Path(dataset.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "\n".join([
        "import os, sys",
        "import ragrade.dataset, ragrade.llmclient, ragrade.promptkit, ragrade.errors",
        "print('numpy' in sys.modules, os.environ['OPENBLAS_NUM_THREADS'])",
    ])
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "False 1\n"


@pytest.mark.parametrize("mode, loaded", [
    ("zero-shot", "requests=False http.client=True"),
    ("vote", "requests=False http.client=False"),
])
def test_commands_load_no_http_library_they_do_not_use(
    mode, loaded, corpus_path, fixture_corpus, tmp_path, stub_server_factory
):
    out_dir = str(tmp_path / "runs")
    commands = [["ingest", str(corpus_path), "--out-dir", out_dir]]
    if mode == "vote":
        commands.append(["index", "--split", "train", "--out-dir", out_dir])
        grade = ["--mode", "vote", "--split", "test_ua"]
    else:
        server = stub_server_factory(echo_gold_chat_app(gold_by_answer(fixture_corpus.records)))
        grade = ["--mode", "zero-shot", "--split", "test_ua", "--endpoint", server.url]
    commands.append(["grade", *grade, "--out-dir", out_dir])
    code = "\n".join([
        "import sys",
        "from ragrade.cli import main",
        *(f"assert main({argv!r}) == 0" for argv in commands),
        "print(*(f'{m}={m in sys.modules}' for m in ('requests', 'http.client')))",
    ])
    env = dict(os.environ)
    src = str(Path(dataset.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == loaded
    if mode != "vote":
        assert len(server.requests) == 3


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


@pytest.mark.parametrize("source", ["flag", "config", "manifest"])
def test_evaluate_out_dir_from_flag_then_config_file_then_manifest_directory(
    source, corpus_path, tmp_path, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    runs = tmp_path / "runs"
    manifest = tmp_path / "manifests" / "m.json"
    assert main(["ingest", str(corpus_path), "--out-dir", str(runs)]) == 0
    assert main(["index", "--out-dir", str(runs)]) == 0
    assert main(["grade", "--mode", "vote", "--out-dir", str(runs), "--out", str(manifest)]) == 0
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"out_dir": "fromcfg"}), encoding="utf-8")
    flags = {
        "flag": ["--config", str(config), "--out-dir", "fromflag"],
        "config": ["--config", str(config)],
        "manifest": [],
    }[source]
    assert main(["evaluate", str(manifest), *flags]) == 0
    expected = {"flag": "fromflag", "config": "fromcfg", "manifest": "manifests"}[source]
    written = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("m.report.*"))
    assert written == [f"{expected}/m.report.csv", f"{expected}/m.report.json"]


_MALFORMED_MANIFESTS = {
    "not_an_object": [{"config": {"mode": "rag"}, "items": []}],
    "item_without_judgment": {
        "manifest_version": 1,
        "config": {"mode": "rag"},
        "items": [{"id": "a1", "gold_label": "correct", "gold_score": 1.0}],
    },
    **{
        f"judgment_{name}": {
            "manifest_version": 1,
            "config": {"mode": "rag"},
            "items": [
                {
                    "id": "a1",
                    "gold_label": "correct",
                    "gold_score": 1.0,
                    "gold_feedback": "",
                    "judgment": {
                        "score": 1.0, "label": "correct", "feedback": "", "parse_path": "typed",
                        **judgment,
                    },
                }
            ],
        }
        for name, judgment in [
            ("score_null", {"score": None}),
            ("score_string", {"score": "0.5"}),
            ("score_bool", {"score": True}),
            ("label_null", {"label": None}),
        ]
    },
}


@pytest.mark.parametrize("command", ["evaluate", "report"])
@pytest.mark.parametrize("malformed", sorted(_MALFORMED_MANIFESTS))
def test_malformed_manifest_exits_1(command, malformed, tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(_MALFORMED_MANIFESTS[malformed]), encoding="utf-8")
    assert main([command, str(path), "--out-dir", str(tmp_path / "out")]) == 1
    assert "manifest" in capsys.readouterr().err
