"""The CLI and the disassembler."""

import pytest

from repro.asm import assemble
from repro.asm.disasm import disassemble_image, disassemble_word
from repro.cli import main
from repro.cpu.isa import Op
from repro.formats.instruction import Instruction

from tests.helpers import asm_inst

SAMPLE = """
        .seg    sample
        .gates  1
main::  lda     =42
        eap4    back
        call    l_write,*
back:   halt
l_write: .its   svc$write
"""


class TestDisassembler:
    def test_immediate(self):
        assert disassemble_word(asm_inst(Op.LDA, offset=5, immediate=True)) == "lda     =5"

    def test_pr_relative_indirect(self):
        text = disassemble_word(asm_inst(Op.STA, offset=3, pr=2, indirect=True))
        assert text == "sta     pr2|3,*"

    def test_indexed(self):
        text = disassemble_word(asm_inst(Op.LDQ, offset=7, indexed=True))
        assert text == "ldq     7,x"

    def test_no_operand(self):
        assert disassemble_word(asm_inst(Op.HALT)) == "halt"

    def test_unknown_opcode_as_word(self):
        assert disassemble_word(0o777 << 27).startswith(".word")

    def test_data_word_as_word(self):
        # opcode field 0 = NOP but stray operand bits -> .word
        assert disassemble_word(12345).startswith(".word")

    def test_roundtrip_through_assembler(self):
        """Disassembling an assembled program and reassembling the
        instruction lines yields the same words."""
        image = assemble(
            """
        lda     =1
        sta     pr6|2
        tra     0
        halt
"""
        )
        for word in image.words:
            line = "        " + disassemble_word(word)
            reassembled = assemble(line + "\n")
            assert reassembled.words == [word]

    def test_image_disassembly_labels_entries(self):
        image = assemble(SAMPLE)
        text = disassemble_image(image)
        assert "main" in text
        assert "; gate" in text
        assert "call" in text


class TestCLI:
    def test_figures_command(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out and "Figure 9" in out

    def test_figures_to_file(self, tmp_path, capsys):
        out_path = tmp_path / "figures.txt"
        assert main(["figures", "--out", str(out_path)]) == 0
        assert "Figure 9" in out_path.read_text()

    def test_asm_command(self, tmp_path, capsys):
        src = tmp_path / "p.asm"
        src.write_text(SAMPLE)
        assert main(["asm", str(src)]) == 0
        out = capsys.readouterr().out
        assert "sample" in out and "entries:" in out

    def test_asm_disasm_flag(self, tmp_path, capsys):
        src = tmp_path / "p.asm"
        src.write_text(SAMPLE)
        assert main(["asm", str(src), "--disasm"]) == 0
        assert "lda     =42" in capsys.readouterr().out

    def test_run_command(self, tmp_path, capsys):
        src = tmp_path / "p.asm"
        src.write_text(SAMPLE)
        assert main(["run", str(src)]) == 0
        out = capsys.readouterr().out
        assert "halted:         True" in out
        assert "console:        [42]" in out

    def test_run_missing_file(self, capsys):
        assert main(["run", "/no/such/file.asm"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_asm_bad_source(self, tmp_path, capsys):
        src = tmp_path / "bad.asm"
        src.write_text("        frobnicate 1\n")
        assert main(["asm", str(src)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_run_with_trace(self, tmp_path, capsys):
        src = tmp_path / "p.asm"
        src.write_text(SAMPLE)
        assert main(["run", str(src), "--trace"]) == 0
        out = capsys.readouterr().out
        assert "CALL" in out and "RETURN" in out

    def test_run_metrics_json_to_stdout(self, tmp_path, capsys):
        import json

        src = tmp_path / "p.asm"
        src.write_text(SAMPLE)
        assert main(["run", str(src), "--metrics-json", "-"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["halted"] is True
        assert payload["a"] == 42
        assert payload["instructions"] > 0
        # The full snapshot: every counter plus derived hit rates.
        for key in (
            "cycles",
            "ring_crossings",
            "sdw_hit_rate",
            "ptlb_hit_rate",
            "icache_hit_rate",
            "jit_hit_rate",
            "jit_invalidations",
        ):
            assert key in payload

    def test_run_metrics_json_to_file(self, tmp_path, capsys):
        import json

        src = tmp_path / "p.asm"
        src.write_text(SAMPLE)
        out_path = tmp_path / "metrics.json"
        assert main(["run", str(src), "--metrics-json", str(out_path)]) == 0
        assert "wrote" in capsys.readouterr().out
        payload = json.loads(out_path.read_text())
        assert payload["halted"] is True and payload["ring"] == 4
