"""Unit tests for SwitchConfig."""

import pytest

from repro.switch.config import SwitchConfig


#: Values no switch dimension, capacity or speedup may take: nan < 1 is
#: False, so nan and fractions need their own rejection.
BAD_SIZES = [0, -1, float("nan"), float("inf"), 2.5, 1.0, "2", True]


class TestValidation:
    def test_square_constructor(self):
        c = SwitchConfig.square(4, speedup=2, b_in=3, b_out=5, b_cross=2)
        assert c.n_in == 4 and c.n_out == 4
        assert c.speedup == 2
        assert (c.b_in, c.b_out, c.b_cross) == (3, 5, 2)
        assert c.is_square

    def test_asymmetric_switch_supported(self):
        c = SwitchConfig(n_in=4, n_out=2)
        assert not c.is_square

    def test_rejects_zero_ports(self):
        for bad in BAD_SIZES:
            with pytest.raises(ValueError, match="^n_in must be an integer"):
                SwitchConfig(n_in=bad, n_out=2)
            with pytest.raises(ValueError, match="^n_out must be an integer"):
                SwitchConfig(n_in=2, n_out=bad)

    def test_rejects_zero_speedup(self):
        for bad in BAD_SIZES:
            with pytest.raises(ValueError,
                               match="^speedup must be an integer"):
                SwitchConfig(n_in=2, n_out=2, speedup=bad)

    @pytest.mark.parametrize("field", ["b_in", "b_out", "b_cross"])
    def test_rejects_zero_capacities(self, field):
        for bad in BAD_SIZES:
            with pytest.raises(ValueError,
                               match=f"^{field} must be an integer"):
                SwitchConfig(n_in=2, n_out=2, **{field: bad})

    @pytest.mark.parametrize("switch", [
        "speedup = nan", "b_in = 2.5", "n_in = 0",
    ])
    def test_cli_exits_2_with_one_line(self, switch, tmp_path, capsys):
        from repro.cli import main

        spec = tmp_path / "bad.toml"
        spec.write_text(f'name = "bad-switch"\n\n[switch]\n{switch}\n')
        assert main(["scenarios", "run", "--file", str(spec),
                     "--no-artifacts"]) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert captured.out == ""

    def test_frozen(self):
        c = SwitchConfig.square(2)
        with pytest.raises(Exception):
            c.n_in = 5

    def test_cycles(self):
        c = SwitchConfig.square(2, speedup=3)
        assert c.cycles(10) == 30

    def test_defaults(self):
        c = SwitchConfig(n_in=2, n_out=3)
        assert c.speedup == 1
        assert c.b_in == 8 and c.b_out == 8 and c.b_cross == 1
