import base64
import csv
import json
import os
import re
import shutil
import socket
import struct
import subprocess
import sys
import zlib
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from ragrade import cli, dataset
from ragrade.cli import main
from ragrade.promptkit import DEFAULT_TASK_DESCRIPTION

from conftest import SEALED_PREFIX, corpus_row, gold_by_answer, reseal, rewrite_sealed
from stub_servers import (
    echo_gold_chat_app, fixed_chat_app, mirror_embedding_app, schema_chat_app,
)


def test_ingest_fixture(corpus_path, tmp_path, capsys):
    out_dir = tmp_path / "runs"
    code = main(["ingest", str(corpus_path), "--out-dir", str(out_dir)])
    assert code == 0
    assert (out_dir / "corpus.cache").exists()
    assert not (out_dir / "corpus.jsonl").exists()
    out = capsys.readouterr().out
    assert "train=8" in out and "test_ua=3" in out and "test_uq=3" in out


def _flip_byte(path, at):
    data = bytearray(path.read_bytes())
    data[at] ^= 0x01
    path.write_bytes(bytes(data))


def _v1_cache(path):
    """The cache at ``path`` in version 1's layout: a JSON header line, whose
    crc32 covers the column lines after it."""
    data = path.read_bytes()
    (header_len,) = struct.unpack("<I", data[8:12])
    body = data[SEALED_PREFIX + header_len :]
    header = {"format": "ragrade-corpus", "version": 1, "records": 14, "crc32": zlib.crc32(body)}
    path.write_bytes(json.dumps(header).encode() + b"\n" + body)


def _split_indices(edit):
    """A body rewrite that replaces the cache's last line, each record's index
    into the split values, with ``edit(values, indices)``."""
    def rewrite(body):
        lines = body.splitlines(keepends=True)
        indices = edit(json.loads(lines[-2]), json.loads(lines[-1]))
        return b"".join(lines[:-1]) + json.dumps(indices).encode() + b"\n"
    return rewrite


_CACHE_CORRUPTIONS = {
    "flipped_body_byte": lambda p: _flip_byte(p, -5),
    # the header is '{"records": 14}': '{' becomes 'z'
    "flipped_header_byte": lambda p: _flip_byte(p, SEALED_PREFIX),
    "truncated": lambda p: p.write_bytes(p.read_bytes()[:-40]),
    "empty": lambda p: p.write_bytes(b""),
    "header_not_json": lambda p: reseal(p, p.read_bytes()[:SEALED_PREFIX] + b"corpus"
                                        + p.read_bytes()[SEALED_PREFIX + 6 :]),
    # version 2, the previous layout: one line per field
    "other_version": lambda p: p.write_bytes(p.read_bytes()[:4] + struct.pack("<I", 2)
                                             + p.read_bytes()[8:]),
    "v1_layout": _v1_cache,
    "other_format": lambda p: p.write_bytes(b"RGIX" + p.read_bytes()[4:]),
    "eight_columns": lambda p: rewrite_sealed(
        p, body=lambda body: b"".join(body.splitlines(keepends=True)[:16])),
    "index_past_its_values": lambda p: rewrite_sealed(
        p, body=_split_indices(lambda values, indices: [len(values), *indices[1:]])),
    "negative_index": lambda p: rewrite_sealed(
        p, body=_split_indices(lambda values, indices: [-1, *indices[1:]])),
    "non_integer_index": lambda p: rewrite_sealed(
        p, body=_split_indices(lambda values, indices: [float(indices[0]), *indices[1:]])),
    "body_not_json_lines": lambda p: rewrite_sealed(p, body=lambda body: b"corpus\n" * 9),
    "record_count": lambda p: rewrite_sealed(p, header=lambda h: h.update(records=15)),
}


def _cache_readers(out_dir):
    """The commands that read the corpus cache of ``out_dir``."""
    return [
        ["index", "--out-dir", str(out_dir)],
        ["grade", "--mode", "vote", "--k", "3", "--out-dir", str(out_dir)],
        ["optimize", "--endpoint", "http://127.0.0.1:9", "--out-dir", str(out_dir)],
    ]


@pytest.mark.parametrize("corruption", sorted(_CACHE_CORRUPTIONS))
def test_bad_corpus_cache_exits_1_with_reingest_message(corruption, corpus_path, tmp_path, capsys):
    out_dir = tmp_path / "runs"
    assert main(["ingest", str(corpus_path), "--out-dir", str(out_dir)]) == 0
    _CACHE_CORRUPTIONS[corruption](out_dir / "corpus.cache")
    capsys.readouterr()
    for argv in _cache_readers(out_dir):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == (
            f"error: {out_dir / 'corpus.cache'} is not a current corpus cache; re-run `ragrade ingest`\n"
        )


def test_out_dir_without_corpus_cache_exits_1_with_ingest_message(corpus_path, tmp_path, capsys):
    # a corpus.jsonl in the out dir (what ingest wrote before the cache) is not read
    out_dir = tmp_path / "runs"
    assert main(["ingest", str(corpus_path), "--out-dir", str(out_dir)]) == 0
    (out_dir / "corpus.cache").rename(out_dir / "corpus.jsonl")
    capsys.readouterr()
    for argv in _cache_readers(out_dir):
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "error: no corpus given; pass --corpus or run `ragrade ingest <path>` first\n"
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


def test_vote_manifest_names_no_model_whatever_the_config_file_holds(corpus_path, tmp_path):
    # vote calls no model: a config file's endpoint and model must not reach
    # its manifest, and its model settings are not checked, even invalid ones
    out_dir = tmp_path / "runs"
    assert main(["ingest", str(corpus_path), "--out-dir", str(out_dir)]) == 0
    assert main(["index", "--out-dir", str(out_dir)]) == 0
    flags = ["--mode", "vote", "--k", "3"]
    assert _grade(out_dir, out_dir / "without.json", *flags) == 0
    without_cfg = json.loads((out_dir / "without.json").read_text())
    config_path = tmp_path / "cfg.json"
    for file_cfg in ({"model": "mistral:7b"}, {"max_tokens": 0}):
        config_path.write_text(
            json.dumps({"endpoint": "http://127.0.0.1:9", **file_cfg}), encoding="utf-8"
        )
        assert _grade(out_dir, out_dir / "with.json", *flags, "--config", str(config_path)) == 0
        with_cfg = json.loads((out_dir / "with.json").read_text())
        config = with_cfg["config"]
        assert (config["model_id"], config["endpoint"], config["temperature"]) == (
            "vote", None, None
        )
        assert list(with_cfg["ledger"]) == ["vote|votegrader|3"]
        with_cfg["created_at"] = without_cfg["created_at"]
        assert with_cfg == without_cfg


@pytest.mark.parametrize("command", ["evaluate", "report"])
def test_metrics_without_text_metrics_leave_the_embedder_settings_unchecked(
    command, corpus_path, tmp_path, capsys
):
    # only text metrics embed: without them an invalid embed_dim is not read
    out_dir = tmp_path / "runs"
    assert main(["ingest", str(corpus_path), "--out-dir", str(out_dir)]) == 0
    assert main(["index", "--out-dir", str(out_dir)]) == 0
    manifest = out_dir / "vote.json"
    assert _grade(out_dir, manifest, "--mode", "vote", "--k", "3") == 0
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({"embed_dim": 1}), encoding="utf-8")
    reports = []
    for name, flags in (("plain", []), ("config", ["--config", str(config_path)])):
        report_dir = tmp_path / name
        assert main([command, str(manifest), "--out-dir", str(report_dir), *flags]) == 0
        reports.append({path.name: path.read_bytes() for path in report_dir.iterdir()})
    assert reports[0] and reports[0] == reports[1]
    argv = [command, str(manifest), "--out-dir", str(tmp_path / "text"), "--config",
            str(config_path), "--with-text-metrics"]
    assert main(argv) == 1
    assert "dimension must be >= 2" in capsys.readouterr().err


_INDEX_CORRUPTIONS = {
    "id_not_in_corpus": "not in the corpus; rebuild with `ragrade index`",
    "id_twice": "corrupt index file: a record id is listed twice",
    "config_missing": "corrupt index file: header field 'config' is missing",
    # its vectors would load as 16-dim rows, and every query group would then fail
    "dim_not_config": "corrupt index file: header field 'dim' is not the config's 32",
    "bad_magic": "not a ragrade index file",
    # the checksum covers the blocks: offsets that fall and bytes after the
    # table fail it first, and under a checksum that matches them fail their
    # own checks
    "falling_offsets": "checksum mismatch; re-index with `ragrade index`",
    "falling_offsets_resealed": "corrupt index file: offsets must rise from 0",
    "table_byte_flipped": "checksum mismatch; re-index with `ragrade index`",
    # NaN over the file's last 64 bytes once graded without a word
    "nan_tail": "checksum mismatch; re-index with `ragrade index`",
    # a row id past the table, under a checksum that matches it
    "row_id_past_table": "corrupt index file: a row id is outside the table",
    # r01 read as r11, a test_ua record, once graded with a different manifest
    "header_id_flipped": "checksum mismatch; re-index with `ragrade index`",
    "trailing_bytes": "checksum mismatch; re-index with `ragrade index`",
    "trailing_bytes_resealed": "corrupt index file: its blocks do not fill its body",
}


def _swap_first_offsets(path, resealed):
    """Swap the index's second and third offsets, so that they fall."""
    data = bytearray(path.read_bytes())
    (header_len,) = struct.unpack("<I", data[8:12])
    at = SEALED_PREFIX + header_len + 8  # the offsets start at 0, and offsets[0] stays
    data[at : at + 16] = data[at + 8 : at + 16] + data[at : at + 8]
    if resealed:
        reseal(path, data)
    else:
        path.write_bytes(bytes(data))


def _point_row_id_past_table(path):
    """Set the index's first row id to its table's row count, and its
    checksum to match."""
    data = bytearray(path.read_bytes())
    (header_len,) = struct.unpack("<I", data[8:12])
    header = json.loads(data[SEALED_PREFIX : SEALED_PREFIX + header_len])
    at = SEALED_PREFIX + header_len + 8 * (len(header["record_ids"]) + 1)
    data[at : at + 4] = struct.pack("<i", header["rows"])
    reseal(path, data)


def _flip_header_id(path):
    """Flip the bit that turns the header's record id r01 into r11."""
    data = bytearray(path.read_bytes())
    data[data.index(b'"r01"') + 2] ^= 0x01
    path.write_bytes(bytes(data))


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
        elif corruption == "dim_not_config":
            header["dim"] = header["config"]["dimension"] // 2
        else:
            del header["config"]

    index_path = out_dir / "index.rgix"
    if corruption == "bad_magic":
        index_path.write_bytes(b"RGIY" + index_path.read_bytes()[4:])
    elif corruption.startswith("falling_offsets"):
        _swap_first_offsets(index_path, resealed=corruption.endswith("resealed"))
    elif corruption == "table_byte_flipped":
        data = bytearray(index_path.read_bytes())
        data[-100] ^= 0x01
        index_path.write_bytes(bytes(data))
    elif corruption == "nan_tail":
        nan = struct.pack("<16f", *[float("nan")] * 16)
        index_path.write_bytes(index_path.read_bytes()[:-64] + nan)
    elif corruption == "row_id_past_table":
        _point_row_id_past_table(index_path)
    elif corruption == "header_id_flipped":
        _flip_header_id(index_path)
    elif corruption == "trailing_bytes":
        index_path.write_bytes(index_path.read_bytes() + bytes(700))
    elif corruption == "trailing_bytes_resealed":
        reseal(index_path, index_path.read_bytes() + bytes(700))
    else:
        rewrite_sealed(index_path, corrupt)
    capsys.readouterr()
    flags = ["--mode", "vote", "--k", "3", "--split", "test_ua"]
    assert _grade(out_dir, out_dir / "m.json", *flags) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and _INDEX_CORRUPTIONS[corruption] in line
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
        # bool("false") once turned the exclusion on
        ("grade", "exclude_same_question", "false"),
        # an int path once opened that file descriptor
        ("grade", "signature", 5),
        # these three once exited 2 with a traceback
        ("index", "out_dir", 5),
        ("index", "corpus", 5),
        ("index", "index_path", 5),
        ("grade", "mode", ["vote"]),
        ("optimize", "instructions_file", None),
    ],
)
def test_config_file_number_of_a_wrong_type_exits_1(
    command, key, value, corpus_path, tmp_path, capsys
):
    # every key a command reads is typed, not only the numbers
    out_dir = tmp_path / "runs"
    assert main(["ingest", str(corpus_path), "--out-dir", str(out_dir)]) == 0
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({key: value}), encoding="utf-8")
    capsys.readouterr()
    flags = ["--config", str(config_path), "--out-dir", str(out_dir)]
    if command != "index":
        flags += ["--endpoint", "http://127.0.0.1:9"]
    assert main([command, *flags]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: config key {key!r} must be ")


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


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_misspelled_config_key_exits_1_on_every_command(
    command, corpus_path, tmp_path, stub_server_factory, capsys
):
    # a misspelled key once went unread: the run went on with the default
    server = stub_server_factory(fixed_chat_app("{}"))
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"exclude_same_qestion": True}), encoding="utf-8")
    out_dir = tmp_path / "runs"
    corpus, manifest = str(corpus_path), str(tmp_path / "m.json")
    argv = {
        "ingest": ["ingest", corpus],
        "index": ["index", "--corpus", corpus],
        "grade": ["grade", "--corpus", corpus, "--endpoint", server.url],
        "evaluate": ["evaluate", manifest],
        "optimize": ["optimize", "--corpus", corpus, "--endpoint", server.url],
        "report": ["report", manifest],
    }[command]
    assert main([*argv, "--config", str(config_path), "--out-dir", str(out_dir)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: unknown config key 'exclude_same_qestion' in {config_path}; "
        "did you mean 'exclude_same_question'?"
    ]
    assert server.requests == [] and not out_dir.exists()


@pytest.mark.parametrize("key", ["out", "force", "config", "verbose"])
def test_flag_only_setting_in_a_config_file_exits_1(key, corpus_path, tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({key: True}), encoding="utf-8")
    out_dir = tmp_path / "runs"
    argv = ["ingest", str(corpus_path), "--config", str(config_path), "--out-dir", str(out_dir)]
    assert main(argv) == 1
    flag = "--" + key
    assert capsys.readouterr().err.splitlines() == [
        f"error: config key {key!r} is set by its flag only, {flag}"
    ]
    assert not out_dir.exists()


@pytest.mark.parametrize("argv, flag", [
    (["grade", "--exclude"], "--exclude"),
    (["optimize", "--k", "3"], "--k 3"),
    (["index", "--seed", "3"], "--seed 3"),
    (["evaluate", "m.json", "--seed", "3"], "--seed 3"),
])
def test_flag_prefix_or_a_flag_of_another_command_exits_1(argv, flag, capsys):
    # argparse used to read --exclude as --exclude-same-question and --k as --k-max
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines()[-1] == f"error: unrecognized arguments: {flag}"


def test_another_commands_key_is_neither_applied_nor_checked(corpus_path, tmp_path):
    out_dir = tmp_path / "runs"
    assert main(["ingest", str(corpus_path), "--out-dir", str(out_dir)]) == 0
    assert main(["index", "--out-dir", str(out_dir)]) == 0
    flags = ["--mode", "vote", "--k", "3"]
    assert _grade(out_dir, tmp_path / "without.json", *flags) == 0
    config_path = tmp_path / "config.json"
    # optimize's budget, of a wrong type, once made grade exit 1
    config_path.write_text(json.dumps({"budget": "x", "with_text_metrics": 5}), encoding="utf-8")
    assert _grade(out_dir, tmp_path / "with.json", *flags, "--config", str(config_path)) == 0
    assert _masked((tmp_path / "with.json").read_bytes()) == _masked(
        (tmp_path / "without.json").read_bytes()
    )


def _masked(data: bytes) -> bytes:
    return re.sub(rb'"created_at": "[^"]*"', b'"created_at": "<masked>"', data)


def _setting_cases(tmp_path, corpus, url):
    """Each setting a config file may set: (its command line without it, its value)."""
    pre = tmp_path / "pre"
    assert main(["ingest", corpus, "--out-dir", str(pre)]) == 0
    assert main(["index", "--out-dir", str(pre)]) == 0
    assert main(["grade", "--mode", "vote", "--out-dir", str(pre), "--out", str(pre / "m.json")]) == 0
    outputs = [{"name": "score", "type": "real01"}, {"name": "label", "type": "label3"},
               {"name": "feedback", "type": "freetext"}]
    signature = {"task_description": "Grade tersely.", "output_fields": outputs,
                 "input_fields": _CUSTOM_SIGNATURE["input_fields"]}
    (pre / "sig.json").write_text(json.dumps(signature), encoding="utf-8")
    (pre / "instructions.txt").write_text("Grade tersely.\nGrade kindly.\n", encoding="utf-8")
    program = {"instruction": "Grade tersely.", "demo_record_ids": ["r01"], "dev_accuracy": 1.0}
    (pre / "program.json").write_text(json.dumps(program), encoding="utf-8")
    corpus_flags, endpoint = ["--corpus", corpus], ["--endpoint", url]
    zero_shot = ["grade", *corpus_flags, *endpoint, "--out", "m.json"]
    vote = ["grade", *corpus_flags, "--mode", "vote", "--index-path", str(pre / "index.rgix"),
            "--out", "m.json"]

    def optimize(*skip):
        flags = {"--budget": "2", "--dev-count": "3"}
        return ["optimize", *corpus_flags, *endpoint, "--out", "p.json",
                *[x for flag, value in flags.items() if flag not in skip for x in (flag, value)]]

    return {
        "out_dir": (["ingest", corpus], "elsewhere"),
        "corpus": (["index"], corpus),
        "format": (["ingest", corpus], "jsonl"),
        "split": (vote, "test_uq"),
        "index_path": (["index", *corpus_flags], "idx/i.rgix"),
        "mode": (vote[:3] + vote[5:], "vote"),
        "k": (vote, 3),
        "style": (zero_shot, "chain_of_thought"),
        "seed": (zero_shot, 7),
        "exclude_same_question": (vote, True),
        "signature": (zero_shot, str(pre / "sig.json")),
        "program": (["grade", *corpus_flags, *endpoint, "--mode", "optimized", "--out", "m.json"],
                    str(pre / "program.json")),
        "with_text_metrics": (["evaluate", str(pre / "m.json"), "--out-dir", "runs"], True),
        "embed_backend": (["index", *corpus_flags], "deterministic_test"),
        "embed_endpoint": (["index", *corpus_flags], "http://127.0.0.1:9"),
        "embed_dim": (["index", *corpus_flags], 16),
        "endpoint": (["grade", *corpus_flags, "--out", "m.json"], url),
        "model": (zero_shot, "other-model"),
        "temperature": (zero_shot, 0.5),
        "max_tokens": (zero_shot, 64),
        "timeout": (zero_shot, 5.0),
        "max_retries": (zero_shot, 2),
        "concurrency": (zero_shot, 2),
        "budget": (optimize("--budget"), 1),
        "k_max": (optimize(), 1),
        "dev_count": (optimize("--dev-count"), 2),
        "instructions_file": (optimize(), str(pre / "instructions.txt")),
        "proposal_endpoint": (optimize(), url),
        "proposal_model": (optimize() + ["--proposal-endpoint", url], "proposer"),
    }


# settings whose value here is their default, or shows in no output or request
_UNSEEN = {"format", "embed_backend", "timeout", "max_retries", "concurrency"}


def test_each_file_setting_acts_as_its_flag(
    corpus_path, fixture_corpus, tmp_path, stub_server_factory, monkeypatch, capsys
):
    server = stub_server_factory(echo_gold_chat_app(gold_by_answer(fixture_corpus.records)))
    cases = _setting_cases(tmp_path, str(corpus_path), server.url)
    rows = {row.key: row for row in cli.SETTINGS if row.file}
    assert sorted(cases) == sorted(rows)
    work = tmp_path / "work"

    def run(argv):
        """The exit code, stdout, files written and requests sent by one run."""
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir()
        monkeypatch.chdir(work)
        capsys.readouterr()
        sent = len(server.requests)
        code = main(argv)
        files = {str(p.relative_to(work)): _masked(p.read_bytes())
                 for p in sorted(work.rglob("*")) if p.is_file()}
        requests = sorted(json.dumps(r, sort_keys=True) for r in server.requests[sent:])
        return code, capsys.readouterr().out, files, requests

    for key, (argv, value) in cases.items():
        row = rows[key]
        flag = [row.flag] if row.kind is bool else [row.flag, str(value)]
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({key: value}), encoding="utf-8")
        by_flag = run([*argv, *flag])
        assert by_flag[0] == 0, key
        assert run([*argv, "--config", str(config_path)]) == by_flag, key
        if key not in _UNSEEN:
            assert run(argv) != by_flag, key


# path values, relative to the run's working directory: files, a directory,
# missing names and a name under a file
_PATH_NAMES = ["corpus.jsonl", "runs", "runs/corpus.cache", "runs/index.rgix", "missing.json",
               "new/index.rgix", "corpus.jsonl/x"]
_WORDS = ["vote", "rag", "csv", "jsonl", "train", "test_uq", "remote", "deterministic_test",
          "chain_of_thought", "false", "3"]
# numbers stay small: an embed_dim or a k sizes arrays, and running out of
# memory is a runtime failure (exit 2), not a config fault
_JSON_SCALARS = (
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats(-3, 40) | st.text(max_size=4)
)
# every key a file may set but the endpoints, the flag-only keys and misspellings
_FILE_KEYS = sorted(
    [row.key for row in cli.SETTINGS if "endpoint" not in row.key]
    + ["exclude_same_qestion", "temprature", "dimension"]
)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(config=st.dictionaries(
    st.sampled_from(_FILE_KEYS),
    st.sampled_from(_PATH_NAMES + _WORDS) | _JSON_SCALARS | st.lists(_JSON_SCALARS, max_size=2)
    | st.dictionaries(st.text(max_size=3), _JSON_SCALARS, max_size=2),
    max_size=4,
))
# a path under a file once exited 2 with a traceback
@example(config={"index_path": "corpus.jsonl/x"})
@example(config={"out_dir": "corpus.jsonl", "corpus": "runs/index.rgix"})
@example(config={"signature": "runs/index.rgix", "exclude_same_question": "false"})
@example(config={"embed_backend": "remote", "format": "csv", "corpus": "corpus.jsonl"})
def test_any_config_file_exits_0_or_1_with_one_error_line(
    config, corpus_path, tmp_path, monkeypatch, capsys
):
    base = tmp_path / "base"
    if not base.exists():
        assert main(["ingest", str(corpus_path), "--out-dir", str(base / "runs")]) == 0
        assert main(["index", "--out-dir", str(base / "runs")]) == 0
        shutil.copy(corpus_path, base / "corpus.jsonl")
    work = tmp_path / "work"
    shutil.rmtree(work, ignore_errors=True)
    shutil.copytree(base, work)
    monkeypatch.chdir(work)
    (work / "config.json").write_text(json.dumps(config), encoding="utf-8")
    for argv in (["index"], ["grade", "--mode", "vote", "--out", "m.json"]):
        capsys.readouterr()
        code = main([*argv, "--config", "config.json"])
        err = capsys.readouterr().err
        assert code in (0, 1), (argv, config, err)
        if code == 1:
            (line,) = err.splitlines()
            assert line.startswith("error: "), (argv, config, err)
            assert not (work / "m.json").exists()


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_damaged_index_file_exits_1_with_one_error_line(data, corpus_path, tmp_path, capsys):
    out_dir = tmp_path / "runs"
    index_path = out_dir / "index.rgix"
    pristine = tmp_path / "pristine.rgix"
    if not pristine.exists():
        assert main(["ingest", str(corpus_path), "--out-dir", str(out_dir)]) == 0
        assert main(["index", "--out-dir", str(out_dir)]) == 0
        shutil.copy(index_path, pristine)
    good = pristine.read_bytes()
    damage = data.draw(st.sampled_from(["flip", "truncate", "append"]))
    if damage == "flip":
        bit = data.draw(st.integers(0, 8 * len(good) - 1))
        damaged = bytearray(good)
        damaged[bit // 8] ^= 1 << (bit % 8)
    elif damage == "truncate":
        damaged = good[: data.draw(st.integers(0, len(good) - 1))]
    else:
        damaged = good + data.draw(st.binary(min_size=1, max_size=64))
    index_path.write_bytes(bytes(damaged))
    capsys.readouterr()
    manifest = tmp_path / "m.json"
    assert _grade(out_dir, manifest, "--mode", "vote", "--split", "test_ua") == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and not manifest.exists()


_SIGNATURE = {
    "task_description": "grade the student answer.",
    "input_fields": [
        {"name": "question", "description": "the question"},
        {"name": "student_answer", "description": "the answer to grade"},
    ],
    "output_fields": [
        {"name": "score", "type": "real01", "description": "how correct"},
        {"name": "label", "type": "label3"},
        {"name": "feedback", "type": "freetext", "description": "why"},
    ],
}


def _damaged_file_run(kind, chat_url):
    """In the working directory, which holds corpus.jsonl, make what a run
    that reads a file of ``kind`` needs; return the file and the run's
    command line, both relative. Only a vote ``grade`` calls no model."""
    assert main(["ingest", "corpus.jsonl", "--out-dir", "runs"]) == 0
    grade = ["grade", "--split", "test_ua", "--out-dir", "runs", "--out", "m.json"]
    model = ["--endpoint", chat_url]
    if kind == "corpus.cache":
        assert main(["index", "--out-dir", "runs"]) == 0
        return "runs/corpus.cache", [*grade, "--mode", "vote"]
    if kind in ("manifest", "report"):  # a manifest, read by evaluate or by report
        assert main([*grade[:-1], "graded.json", "--mode", "zero-shot", *model]) == 0
        command = "evaluate" if kind == "manifest" else "report"
        return "graded.json", [command, "graded.json", "--out-dir", "reports"]
    if kind == "program":
        program = {"instruction": "grade the answer.", "demo_record_ids": ["r01", "r05"],
                   "dev_accuracy": 0.5,
                   "trace": [{"trial": 0, "instruction": "grade.", "demo_record_ids": ["r02"]}]}
        Path("program.json").write_text(json.dumps(program, indent=2), encoding="utf-8")
        return "program.json", [*grade, "--mode", "optimized", "--program", "program.json", *model]
    Path("signature.json").write_text(json.dumps(_SIGNATURE, indent=2), encoding="utf-8")
    return "signature.json", [*grade, "--mode", "zero-shot", "--signature", "signature.json",
                              *model]


@pytest.mark.parametrize("kind", ["corpus.cache", "manifest", "report", "program", "signature"])
@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_damaged_file_exits_0_or_1_with_one_error_line(
    kind, data, corpus_path, tmp_path, stub_server_factory, monkeypatch, capsys
):
    # a flipped bit or a truncation, as in the index test; a damaged corpus
    # cache always fails its checks
    pristine = tmp_path / "pristine"
    if not (pristine / "run.json").exists():
        pristine.mkdir(exist_ok=True)
        shutil.copy(corpus_path, pristine / "corpus.jsonl")
        monkeypatch.chdir(pristine)
        run = _damaged_file_run(kind, stub_server_factory(schema_chat_app()).url)
        Path("run.json").write_text(json.dumps(run), encoding="utf-8")
    work = tmp_path / "work"
    shutil.rmtree(work, ignore_errors=True)
    shutil.copytree(pristine, work)
    monkeypatch.chdir(work)
    target, argv = json.loads(Path("run.json").read_text(encoding="utf-8"))
    good = Path(target).read_bytes()
    if data.draw(st.booleans()):
        bit = data.draw(st.integers(0, 8 * len(good) - 1))
        damaged = bytearray(good)
        damaged[bit // 8] ^= 1 << (bit % 8)
    else:
        damaged = good[: data.draw(st.integers(0, len(good) - 1))]
    Path(target).write_bytes(bytes(damaged))
    capsys.readouterr()
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 1) and "Traceback" not in err, (code, err)
    if code == 1 or kind == "corpus.cache":
        (line,) = err.splitlines()
        assert code == 1 and line.startswith("error: "), err
        assert kind != "corpus.cache" or line.endswith("re-run `ragrade ingest`")
        assert not Path("m.json").exists()


@pytest.mark.parametrize("reader", ["manifest", "program", "signature", "config"])
@pytest.mark.parametrize("content", [
    b"[" * 100_000 + b"]" * 100_000,
    b'["an array"]',
    '{"not": "utf-8: \u00e9"}'.encode("latin-1"),
    b'{"not": json}',
], ids=["nested_100000_deep", "not_an_object", "not_utf8", "not_json"])
def test_unreadable_json_file_exits_1_with_one_line_naming_it(
    reader, content, corpus_path, tmp_path, stub_server_factory, capsys
):
    server = stub_server_factory(fixed_chat_app("unused"))
    path = tmp_path / "file.json"
    path.write_bytes(content)
    grade = ["grade", "--corpus", str(corpus_path), "--split", "test_ua", "--endpoint", server.url,
             "--out-dir", str(tmp_path), "--out", str(tmp_path / "m.json")]
    argv = {
        "manifest": ["evaluate", str(path)],
        "program": [*grade, "--mode", "optimized", "--program", str(path)],
        "signature": [*grade, "--mode", "zero-shot", "--signature", str(path)],
        "config": [*grade, "--mode", "zero-shot", "--config", str(path)],
    }[reader]
    assert main(argv) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and str(path) in line, line
    assert server.requests == [] and not (tmp_path / "m.json").exists()


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


def test_index_and_grade_refuse_a_list_embedding_reply(
    corpus_path, fixture_corpus, tmp_path, stub_server_factory, capsys
):
    # an embedding service that ignores the client's encoding_format replies
    # with JSON lists of rows; ragrade refuses them instead of decoding them
    mirror = mirror_embedding_app(32)
    state = {"format": "base64"}

    def embed_app(path, body):
        if state["format"] == "list":
            body = {k: v for k, v in body.items() if k != "encoding_format"}
        return mirror(path, body)

    embed = stub_server_factory(embed_app)
    chat = stub_server_factory(echo_gold_chat_app(gold_by_answer(fixture_corpus.records)))
    remote = ["--embed-backend", "remote", "--embed-endpoint", embed.url]
    out_dir = tmp_path / "runs"
    assert main(["ingest", str(corpus_path), "--out-dir", str(out_dir)]) == 0
    assert main(["index", "--out-dir", str(out_dir), *remote]) == 0
    index_bytes = (out_dir / "index.rgix").read_bytes()

    state["format"] = "list"
    capsys.readouterr()
    assert main(["index", "--out-dir", str(out_dir), *remote]) == 2
    assert '"encoding_format": "base64"' in capsys.readouterr().err
    assert (out_dir / "index.rgix").read_bytes() == index_bytes
    flags = ["--mode", "rag", "--k", "3", "--split", "test_ua", "--endpoint", chat.url, *remote]
    assert _grade(out_dir, out_dir / "m.json", *flags) == 2  # every item failed
    assert _parse_paths(json.loads((out_dir / "m.json").read_text())) == {"failed": 3}
    assert chat.requests == []


def test_index_of_answers_without_any_token_exits_1(corpus_path, tmp_path, stub_server_factory, capsys):
    # an embedding service that finds no token in any answer
    embed = stub_server_factory(
        lambda path, body: (200, {"embeddings": [""] * len(body["texts"]),
                                  "tokens": [[]] * len(body["texts"])})
    )
    out_dir = tmp_path / "runs"
    argv = ["index", "--corpus", str(corpus_path), "--embed-backend", "remote",
            "--embed-endpoint", embed.url, "--out-dir", str(out_dir)]
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == ["error: no record produced any tokens"]
    assert len(embed.requests) == 1 and not out_dir.exists()


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
        zero_row = base64.b64encode(bytes(8 * 32)).decode("ascii")
        # three values, where two tokens of 32 need 64
        ragged = base64.b64encode(struct.pack("<3d", 1.0, 0.0, 1.0)).decode("ascii")
        return 200, {
            "wrong_shape": {"embeddings": 5, "tokens": 5},
            "zero_norm": {"embeddings": [zero_row] * n, "tokens": [["x"]] * n},
            "ragged": {"embeddings": [ragged] * n, "tokens": [["x", "y"]] * n},
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
        # once "unhashable type: 'list'", exit 2 with a traceback
        ({"instruction": "x", "demo_record_ids": [["r01"]], "dev_accuracy": 1.0},
         "malformed program file"),
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


_CUSTOM_SIGNATURE = {
    "input_fields": [
        {"name": "question"}, {"name": "reference_answer"}, {"name": "student_answer"},
    ],
    "output_fields": [
        {"name": "grade", "type": "real01"},
        {"name": "category", "type": "label3"},
        {"name": "comment", "type": "freetext"},
    ],
}


def test_custom_named_signature_recovers_through_the_relaxed_reask(
    corpus_path, fixture_corpus, tmp_path, stub_server_factory
):
    # every typed reply is prose; the relaxed re-ask is answered in the lines
    # its prompt asks for, under the signature's own field names
    gold = gold_by_answer(fixture_corpus.records)
    echo = echo_gold_chat_app(gold, malform_answers=set(gold))

    def app(path, body):
        status, payload = echo(path, body)
        text = payload["choices"][0]["message"]["content"]
        for old, new in (("Score:", "Grade:"), ("Label:", "Category:"), ("Feedback:", "Comment:")):
            text = text.replace(old, new)
        payload["choices"][0]["message"]["content"] = text
        return status, payload

    server = stub_server_factory(app)
    sig_path = tmp_path / "sig.json"
    sig_path.write_text(json.dumps(_CUSTOM_SIGNATURE), encoding="utf-8")
    out_dir = tmp_path / "runs"
    flags = ["--corpus", str(corpus_path), "--mode", "zero-shot", "--split", "test_ua",
             "--endpoint", server.url, "--signature", str(sig_path)]
    assert _grade(out_dir, out_dir / "m.json", *flags) == 0
    items = json.loads((out_dir / "m.json").read_text())["items"]
    assert [item["judgment"]["parse_path"] for item in items] == ["fallback"] * 3
    for item in items:
        judgment = item["judgment"]
        assert (judgment["score"], judgment["label"], judgment["feedback"]) == (
            item["gold_score"], item["gold_label"], item["gold_feedback"],
        )
    assert len(server.requests) == 6  # one typed ask and one re-ask per item


def test_grade_with_a_signature_without_a_label_field_exits_1_before_any_request(
    corpus_path, tmp_path, stub_server_factory, capsys
):
    server = stub_server_factory(fixed_chat_app("unused"))
    spec = dict(_CUSTOM_SIGNATURE)
    spec["output_fields"] = [f for f in spec["output_fields"] if f["type"] != "label3"]
    sig_path = tmp_path / "sig.json"
    sig_path.write_text(json.dumps(spec), encoding="utf-8")
    out_dir = tmp_path / "runs"
    flags = ["--corpus", str(corpus_path), "--mode", "zero-shot", "--endpoint", server.url,
             "--signature", str(sig_path)]
    assert _grade(out_dir, out_dir / "m.json", *flags) == 1
    assert "no label3 field" in capsys.readouterr().err
    assert server.requests == [] and not (out_dir / "m.json").exists()


_FIELDS = _CUSTOM_SIGNATURE["input_fields"]


@pytest.mark.parametrize("command", ["grade", "optimize"])
@pytest.mark.parametrize("spec, key", [
    ([_CUSTOM_SIGNATURE], "JSON object, not list"),
    ({"output_fields": _CUSTOM_SIGNATURE["output_fields"]}, "'input_fields'"),
    ({"input_fields": _FIELDS, "output_fields": [{"type": "real01"}]}, "'output_fields'"),
    ({**_CUSTOM_SIGNATURE, "input_fields": [["question", "the question"]]}, "'input_fields'"),
    # a number once exited 2 with a traceback, or was shown as its digits
    ({**_CUSTOM_SIGNATURE, "task_description": 5}, "'task_description'"),
    ({**_CUSTOM_SIGNATURE, "scoring_criteria": ["full marks"]}, "'scoring_criteria'"),
    ({**_CUSTOM_SIGNATURE, "input_fields": [{"name": "question", "description": 5}]},
     "'description'"),
], ids=["list", "no_input_fields", "field_without_name", "field_as_list", "task_description_int",
        "scoring_criteria_list", "description_int"])
def test_malformed_signature_exits_1_before_any_request(
    command, spec, key, corpus_path, tmp_path, stub_server_factory, capsys
):
    server = stub_server_factory(fixed_chat_app("unused"))
    sig_path = tmp_path / "sig.json"
    sig_path.write_text(json.dumps(spec), encoding="utf-8")
    out = tmp_path / "runs" / "out.json"
    code = main([command, "--corpus", str(corpus_path), "--endpoint", server.url,
                 "--signature", str(sig_path), "--out-dir", str(out.parent), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and key in err[0], err
    assert server.requests == [] and not out.exists()


def test_grade_max_tokens_0_exits_1_before_any_request(
    corpus_path, tmp_path, stub_server_factory, capsys
):
    server = stub_server_factory(fixed_chat_app("unused"))
    out_dir = tmp_path / "runs"
    flags = ["--corpus", str(corpus_path), "--mode", "zero-shot", "--endpoint", server.url,
             "--max-tokens", "0"]
    assert _grade(out_dir, out_dir / "m.json", *flags) == 1
    assert "max_tokens" in capsys.readouterr().err
    assert server.requests == [] and not (out_dir / "m.json").exists()


def test_ingest_reads_a_csv_suffix_as_csv(fixture_corpus, tmp_path):
    rows = [corpus_row(rec) for rec in fixture_corpus.records]
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


@pytest.mark.parametrize("case", ["missing", "directory", "out_dir_under_a_file"])
def test_unusable_path_exits_1_with_one_line(case, corpus_path, tmp_path):
    # no such corpus, a directory given as the corpus, or an out dir below a regular file
    argv, reason = {
        "missing": (["ingest", str(tmp_path / "nope.jsonl")], "No such file or directory"),
        "directory": (["ingest", str(tmp_path), "--out-dir", str(tmp_path / "runs")],
                      "Is a directory"),
        "out_dir_under_a_file": (
            ["ingest", str(corpus_path), "--out-dir", str(corpus_path / "runs")],
            "Not a directory",
        ),
    }[case]
    env = dict(os.environ)
    src = str(Path(dataset.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-m", "ragrade.cli", *argv], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 1
    assert "Traceback" not in out.stderr
    assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1
    assert reason in out.stderr


def test_unreadable_corpus_exits_1(corpus_path, tmp_path, monkeypatch, capsys):
    def refuse(path, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(path))

    monkeypatch.setattr(dataset, "open", refuse, raising=False)
    assert main(["ingest", str(corpus_path), "--out-dir", str(tmp_path / "runs")]) == 1
    assert capsys.readouterr().err == f"error: [Errno 13] Permission denied: '{corpus_path}'\n"


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


def test_commands_that_hash_nothing_map_no_openssl(corpus_path, tmp_path):
    # each in a fresh interpreter: tier-1 itself loads _hashlib (hypothesis does)
    out_dir, manifest = str(tmp_path / "runs"), str(tmp_path / "m.json")
    assert main(["ingest", str(corpus_path), "--out-dir", out_dir]) == 0
    assert main(["index", "--split", "train", "--out-dir", out_dir]) == 0
    env = dict(os.environ)
    src = str(Path(dataset.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for argv in (
        ["ingest", str(corpus_path), "--out-dir", out_dir],
        ["grade", "--mode", "vote", "--split", "test_ua", "--out-dir", out_dir, "--out", manifest],
        ["evaluate", manifest, "--out-dir", out_dir],
    ):
        code = "\n".join([
            "import sys",
            "from ragrade.cli import main",
            f"assert main({argv!r}) == 0",
            "print(*(f'{m}={m in sys.modules}' for m in ('_hashlib', 'ssl')))",
        ])
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines()[-1] == "_hashlib=False ssl=False", argv


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


def _optimize(out_dir, chat_url, *flags):
    """``optimize`` over the ingested fixture; the program's trial trace."""
    program_path = out_dir / "program.json"
    code = main(["optimize", "--budget", "12", "--k-max", "2", "--dev-count", "3",
                 "--endpoint", chat_url, "--seed", "9", *flags,
                 "--out-dir", str(out_dir), "--out", str(program_path)])
    assert code == 0
    return json.loads(program_path.read_text())["trace"]


def test_optimize_searches_the_instructions_file_and_proposes_none(
    corpus_path, fixture_corpus, tmp_path, stub_server_factory
):
    out_dir = tmp_path / "runs"
    chat = stub_server_factory(echo_gold_chat_app(gold_by_answer(fixture_corpus.records)))
    proposer = stub_server_factory(fixed_chat_app("1. Grade as a proposer would."))
    instructions = tmp_path / "instructions.txt"
    instructions.write_text("  Grade strictly.  \n\n   \nGrade kindly.\n", encoding="utf-8")
    assert main(["ingest", str(corpus_path), "--out-dir", str(out_dir)]) == 0
    trace = _optimize(out_dir, chat.url, "--instructions-file", str(instructions),
                      "--proposal-endpoint", proposer.url)
    # the file's non-blank lines, stripped, are the candidates beside the base one
    assert {entry["instruction"] for entry in trace} == {
        DEFAULT_TASK_DESCRIPTION, "Grade strictly.", "Grade kindly."
    }
    assert proposer.requests == []
    assert not any("Rewrite this instruction" in json.dumps(r["body"]) for r in chat.requests)


def test_optimize_with_its_proposal_endpoint_down_searches_the_base_instruction(
    corpus_path, fixture_corpus, tmp_path, stub_server_factory, monkeypatch, caplog
):
    monkeypatch.setattr("ragrade.llmclient._BACKOFF", 0.0)
    out_dir = tmp_path / "runs"
    chat = stub_server_factory(echo_gold_chat_app(gold_by_answer(fixture_corpus.records)))
    with socket.socket() as sock:  # a port that nothing listens on once it is closed
        sock.bind(("127.0.0.1", 0))
        down = f"http://127.0.0.1:{sock.getsockname()[1]}"
    assert main(["ingest", str(corpus_path), "--out-dir", str(out_dir)]) == 0
    trace = _optimize(out_dir, chat.url, "--proposal-endpoint", down)
    assert {entry["instruction"] for entry in trace} == {DEFAULT_TASK_DESCRIPTION}
    assert "proposal model unavailable" in caplog.text


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


_MODEL_MESSAGE = "optimized calls a model; pass --endpoint (and --model)"


@pytest.mark.parametrize("case, message", [
    ("mode_in_config_file", "unknown mode 'bogus'"),
    ("empty_split", "split 'test_ua' has no records"),
    ("optimized_without_program", "optimized mode needs --program from `ragrade optimize`"),
    ("optimize_one_train_record", "optimizer needs at least 2 train records"),
    ("optimize_without_endpoint", _MODEL_MESSAGE),
    ("optimize_proposal_without_endpoint", _MODEL_MESSAGE),
    ("optimize_budget_0", "budget must be >= 1"),
    ("format_in_config_file", "unknown corpus format 'xml'"),
    ("embed_backend_in_config_file", "unknown backend 'bogus'"),
    ("style_in_config_file", "unknown style 'socratic'"),
    ("signature_output_type", "unknown output type tag 'percent'"),
    ("index_remote_without_endpoint", "remote backend requires an endpoint"),
    ("index_empty_split", "no records to index"),
    ("evaluate_manifest_without_items", "manifest missing items/config sections"),
])
def test_usage_error_exits_1_with_one_line_and_sends_no_request(
    case, message, corpus_path, fixture_corpus, tmp_path, stub_server_factory, capsys
):
    server = stub_server_factory(fixed_chat_app("{}"))

    def json_file(name, data):
        path = tmp_path / name
        path.write_text(json.dumps(data), encoding="utf-8")
        return str(path)

    def with_config(data):
        return ["grade", *corpus, "--config", json_file(f"{case}.json", data), *endpoint]

    one_train = tmp_path / "one_train.jsonl"  # r01 alone: one train record, no other split
    one_train.write_text(json.dumps(corpus_row(fixture_corpus.records[0])) + "\n", encoding="utf-8")
    corpus, endpoint = ["--corpus", str(corpus_path)], ["--endpoint", server.url]
    percent = [{"name": "grade", "type": "percent"}, *_CUSTOM_SIGNATURE["output_fields"][1:]]
    argv = {
        "mode_in_config_file": lambda: with_config({"mode": "bogus"}),
        "empty_split": lambda: ["grade", "--corpus", str(one_train), "--split", "test_ua", *endpoint],
        "optimized_without_program": lambda: ["grade", *corpus, "--mode", "optimized", *endpoint],
        "optimize_one_train_record": lambda: ["optimize", "--corpus", str(one_train), *endpoint],
        "optimize_without_endpoint": lambda: ["optimize", *corpus],
        "optimize_proposal_without_endpoint":
            lambda: ["optimize", *corpus, "--proposal-endpoint", server.url],
        "optimize_budget_0": lambda: ["optimize", *corpus, *endpoint, "--budget", "0"],
        "format_in_config_file": lambda: with_config({"format": "xml"}),
        "embed_backend_in_config_file": lambda: with_config({"embed_backend": "bogus"}),
        "style_in_config_file": lambda: with_config({"style": "socratic"}),
        "signature_output_type": lambda: [
            "grade", *corpus, *endpoint, "--signature",
            json_file("sig.json", {**_CUSTOM_SIGNATURE, "output_fields": percent}),
        ],
        "index_remote_without_endpoint": lambda: ["index", *corpus, "--embed-backend", "remote"],
        "index_empty_split": lambda: ["index", "--corpus", str(one_train), "--split", "test_uq"],
        "evaluate_manifest_without_items":
            lambda: ["evaluate", json_file("m.json", {"manifest_version": 1, "config": {}})],
    }[case]()
    out_dir = tmp_path / "runs"
    assert main([*argv, "--out-dir", str(out_dir)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert server.requests == [] and not out_dir.exists()


def test_a_command_failing_unexpectedly_exits_2_with_one_line(monkeypatch, capsys):
    def fail(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_cmd_report", fail)
    assert main(["report", "m.json"]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: boom"]


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
