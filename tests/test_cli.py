import pytest

from bandshare.cli import (
    ScenarioParseError,
    main,
    parse_scenario,
    parse_trace_csv,
    trace_rows,
    TRACE_HEADER,
    write_csv,
)
from bandshare.engine import DynamicScheme, FullSpectrumScheme, StaticScheme, run

MINIMAL_FULL = """
# minimal two-operator baseline
scenario.n = 2
scenario.w_mhz = 100
scenario.p_linear = 100
scenario.delta = 0.99
utility.family = linear
traffic.op1.p_high = 0.5
traffic.op2.p_high = 0.5
scheme.kind = full
sim.horizon = 50
sim.seed = 1
"""

DYNAMIC_BODY = """
scenario.n = 2
scenario.w_mhz = 100
scenario.p_linear = 1000
scenario.delta = {delta}
utility.family = cobb_douglas
traffic.op1.p_high = 0.25
traffic.op2.p_high = 0.5
scheme.kind = dynamic
scheme.trade_mhz = {trade}
scheme.balance_cap_mhz = 50
scheme.punishment_T = {t}
sim.horizon = 200
sim.seed = 9
sim.replications = 2
"""


def test_parse_minimal_full_scenario():
    scen = parse_scenario(MINIMAL_FULL)
    assert scen.n == 2
    assert isinstance(scen.scheme, FullSpectrumScheme)
    assert scen.horizon == 50


def test_unknown_key_rejected_with_line_number():
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario(MINIMAL_FULL + "scheme.bogus = 1\n")
    assert "scheme.bogus" in str(err.value)
    assert "line" in str(err.value)


def test_missing_key_rejected():
    broken = MINIMAL_FULL.replace("sim.seed = 1", "")
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario(broken)
    assert "sim.seed" in str(err.value)


def test_malformed_line_reports_position():
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario("scenario.n 2\n")
    assert str(err.value).startswith("line 1")


def test_range_violations_rejected():
    with pytest.raises(ScenarioParseError):
        parse_scenario(MINIMAL_FULL.replace("scenario.delta = 0.99", "scenario.delta = 1.5"))
    with pytest.raises(ScenarioParseError):
        parse_scenario(MINIMAL_FULL.replace("traffic.op1.p_high = 0.5", "traffic.op1.p_high = 1.5"))


def test_dynamic_scenario_with_auto_sizing():
    text = DYNAMIC_BODY.format(delta=0.99, trade="auto", t="auto")
    scen = parse_scenario(text)
    assert isinstance(scen.scheme, DynamicScheme)
    assert scen.scheme.params.trade_mhz == 39.0
    assert scen.scheme.params.punishment_slots == 725


def test_dynamic_rejects_non_binary_traffic():
    text = DYNAMIC_BODY.format(delta=0.99, trade=10, t=5).replace(
        "traffic.op1.p_high = 0.25", "traffic.op1.levels = 0:0.5,2:0.5"
    )
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario(text)
    assert "two-level" in str(err.value)


def test_finite_levels_accepted_for_static():
    text = MINIMAL_FULL.replace("scheme.kind = full", "scheme.kind = static\nscheme.punishment_T = 3").replace(
        "traffic.op1.p_high = 0.5", "traffic.op1.levels = 0:0.25,0.5:0.5,1:0.25"
    )
    scen = parse_scenario(text)
    assert isinstance(scen.scheme, StaticScheme)
    assert scen.traffic_specs[0].levels == (0.0, 0.5, 1.0)


def test_auto_punishment_surfaces_infeasibility():
    # linear family + dynamic scheme leaves no deterrence margin
    text = DYNAMIC_BODY.format(delta=0.99, trade=10, t="auto").replace(
        "utility.family = cobb_douglas", "utility.family = linear"
    )
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario(text)
    assert "deterrence" in str(err.value) or "failed" in str(err.value)


def test_cobb_douglas_parameter_keys():
    text = MINIMAL_FULL.replace("utility.family = linear", "utility.family = cobb_douglas\nutility.a = 10")
    scen = parse_scenario(text)
    assert scen.model.family.a == 10.0
    with pytest.raises(ScenarioParseError):
        parse_scenario(MINIMAL_FULL + "utility.a = 10\n")  # linear takes no shape keys


# --- CSV round trips ----------------------------------------------------------------


def test_trace_csv_round_trip(tmp_path):
    scen = parse_scenario(DYNAMIC_BODY.format(delta=0.99, trade=25, t=9))
    trace, _ = run(scen)
    path = tmp_path / "trace.csv"
    write_csv(str(path), TRACE_HEADER, trace_rows(trace))
    text = path.read_text()
    parsed = parse_trace_csv(text)
    assert parsed == trace
    assert text.splitlines()[0] == "slot,operator,traffic,width_mhz,utility,balance_mhz,phase"
    assert '"' not in text


def test_simulate_command_writes_files(tmp_path):
    scn = tmp_path / "s.scn"
    scn.write_text(MINIMAL_FULL)
    out = tmp_path / "out"
    assert main(["simulate", str(scn), "--out", str(out)]) == 0
    trace_text = (out / "trace.csv").read_text()
    summary_text = (out / "summary.csv").read_text()
    assert trace_text.splitlines()[0] == ",".join(TRACE_HEADER)
    assert summary_text.splitlines()[0] == "operator,scheme,mean_revenue,std_err"
    assert len(summary_text.splitlines()) == 3


def test_simulate_deterministic_reruns(tmp_path):
    scn = tmp_path / "s.scn"
    scn.write_text(DYNAMIC_BODY.format(delta=0.99, trade=25, t=9))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", str(scn), "--out", str(out1)]) == 0
    assert main(["simulate", str(scn), "--out", str(out2)]) == 0
    assert (out1 / "trace.csv").read_text() == (out2 / "trace.csv").read_text()
    assert (out1 / "summary.csv").read_text() == (out2 / "summary.csv").read_text()


def test_simulate_rejects_bad_scenario(tmp_path, capsys):
    scn = tmp_path / "s.scn"
    scn.write_text(MINIMAL_FULL + "nope = 1\n")
    assert main(["simulate", str(scn), "--out", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err


# --- verification exit codes ----------------------------------------------------------


def test_verify_certified_dynamic_exits_zero(tmp_path):
    scn = tmp_path / "s.scn"
    scn.write_text(DYNAMIC_BODY.format(delta=0.99, trade="auto", t="auto"))
    assert main(["verify", str(scn), "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "findings.csv").read_text().splitlines()
    assert lines[0] == "state,deviation,gain,loss,profitable"
    assert all(line.endswith(",0") for line in lines[1:])


def test_verify_myopic_dynamic_exits_nonzero(tmp_path, capsys):
    scn = tmp_path / "s.scn"
    scn.write_text(DYNAMIC_BODY.format(delta=0.0, trade=25, t=9))
    assert main(["verify", str(scn), "--out", str(tmp_path)]) == 1
    findings = (tmp_path / "findings.csv").read_text().splitlines()[1:]
    assert any(line.endswith(",1") for line in findings)


def test_verify_static_below_sizing_reports_profitable(tmp_path):
    static = MINIMAL_FULL.replace(
        "scheme.kind = full", "scheme.kind = static\nscheme.punishment_T = 2"
    )
    scn = tmp_path / "s.scn"
    scn.write_text(static)
    assert main(["verify", str(scn), "--out", str(tmp_path)]) == 1
    sized = static.replace("scheme.punishment_T = 2", "scheme.punishment_T = 3")
    scn.write_text(sized)
    assert main(["verify", str(scn), "--out", str(tmp_path)]) == 0


THREE_OP_DYNAMIC = """
scenario.n = 3
scenario.w_mhz = 100
scenario.p_linear = 1000
scenario.delta = 0.99
utility.family = cobb_douglas
traffic.op1.p_high = 0.25
traffic.op2.p_high = 0.5
traffic.op3.p_high = 0.5
scheme.kind = dynamic
scheme.trade_mhz = 10
scheme.balance_cap_mhz = {cap}
scheme.punishment_T = auto
sim.horizon = auto
sim.seed = 7
"""


def test_verify_three_operator_dynamic(tmp_path, capsys):
    scn = tmp_path / "s.scn"
    scn.write_text(THREE_OP_DYNAMIC.format(cap=50))
    code = main(["verify", str(scn), "--out", str(tmp_path)])
    assert code in (0, 1)
    lines = (tmp_path / "findings.csv").read_text().splitlines()
    assert lines[0] == "state,deviation,gain,loss,profitable"
    rows = [line.rsplit(",", 4) for line in lines[1:]]
    assert {kind for _, kind, *_ in rows} == {"lie_high", "lie_low", "detectable"}
    # 91 joint balance states x 8 traffic vectors x 3 operators
    assert sum(1 for _, kind, *_ in rows if kind == "detectable") == 91 * 8 * 3
    for state, kind, gain, loss, flag in rows:
        balances = state.split("]")[0].removeprefix("b=[").split(",")
        assert len(balances) == 3 and sum(float(b) for b in balances) == 0.0
        assert int(flag) == int(float(gain) > float(loss) + 1e-9)
    profitable = sum(int(flag) for *_, flag in rows)
    assert code == (1 if profitable else 0)


def test_verify_many_operators_fails_up_front_above_exact_limit(tmp_path, capsys):
    scn = tmp_path / "s.scn"
    body = THREE_OP_DYNAMIC.format(cap=50).replace("scenario.n = 3", "scenario.n = 7")
    body += "".join(f"traffic.op{i}.p_high = 0.5\n" for i in range(4, 8))
    scn.write_text(body.replace("scheme.punishment_T = auto", "scheme.punishment_T = 50"))
    assert main(["verify", str(scn), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    # 908755 zero-sum balance vectors of seven operators with caps of 5 units
    assert "908755 states; with 128 report vectors and 7 operators" in err
    assert "above the exact verification limit of 1000000" in err
    assert not (tmp_path / "findings.csv").exists()


def test_simulate_many_operators_fails_up_front_above_table_limit(tmp_path, capsys):
    scn = tmp_path / "s.scn"
    body = THREE_OP_DYNAMIC.format(cap=50).replace("scenario.n = 3", "scenario.n = 7")
    body += "".join(f"traffic.op{i}.p_high = 0.5\n" for i in range(4, 8))
    scn.write_text(body.replace("scheme.punishment_T = auto", "scheme.punishment_T = 50"))
    out = tmp_path / "out"
    assert main(["simulate", str(scn), "--out", str(out)]) == 2
    # 908755 balance states x 128 report vectors x 7 operators
    assert "table of 814244480 (balance state, report vector, operator) cells" in (
        capsys.readouterr().err
    )
    assert not out.exists()


def test_simulate_runs_each_replication_once(tmp_path, monkeypatch):
    from bandshare import cli
    from bandshare.cli import SUMMARY_HEADER, summary_rows
    from bandshare.engine import replicate

    scen_text = DYNAMIC_BODY.format(delta=0.99, trade=25, t=9).replace(
        "sim.replications = 2", "sim.replications = 3"
    )
    scn = tmp_path / "s.scn"
    scn.write_text(scen_text)
    # the files as the earlier form wrote them: a traced run, then `replicate`
    scen = parse_scenario(scen_text)
    trace, _ = run(scen)
    write_csv(str(tmp_path / "trace.csv"), TRACE_HEADER, trace_rows(trace))
    write_csv(str(tmp_path / "summary.csv"), SUMMARY_HEADER,
              summary_rows(replicate(scen), "dynamic"))

    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs.get("replication", 0))
        return run(*args, **kwargs)

    monkeypatch.setattr(cli, "run", counted)
    out = tmp_path / "out"
    assert main(["simulate", str(scn), "--out", str(out)]) == 0
    assert sorted(calls) == [0, 1, 2]
    for name in ("trace.csv", "summary.csv"):
        assert (out / name).read_bytes() == (tmp_path / name).read_bytes()


# --- figure commands --------------------------------------------------------------------


def test_fig2_outputs_nonincreasing_market_sizes(tmp_path):
    assert main(["fig2", "--out", str(tmp_path), "--grid", "20:420:8"]) == 0
    lines = (tmp_path / "fig2.csv").read_text().splitlines()
    assert lines[0] == "cost,n_star"
    sizes = [int(line.split(",")[1]) for line in lines[1:]]
    assert len(sizes) == 51
    assert all(b <= a for a, b in zip(sizes, sizes[1:]))


def test_fig3_columns_and_reference_points(tmp_path):
    assert main(["fig3", "--out", str(tmp_path), "--grid", "0,10,30"]) == 0
    lines = (tmp_path / "fig3.csv").read_text().splitlines()
    assert lines[0] == "p_db,revenue_full,revenue_static,revenue_dynamic"
    rows = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
    at30 = rows[-1]
    assert at30[0] == 30.0
    assert at30[3] / at30[1] - 1 == pytest.approx(3.77, abs=0.1)
    low = rows[0]
    assert low[1] > low[2]  # below the crossover, full sharing wins


def test_fig4_improvement_nondecreasing(tmp_path):
    assert main(["fig4", "--out", str(tmp_path), "--grid", "50,100,200"]) == 0
    lines = (tmp_path / "fig4.csv").read_text().splitlines()
    assert lines[0] == "balance_cap_mhz,dynamic_over_full_percent"
    vals = [float(line.split(",")[1]) for line in lines[1:]]
    assert vals[0] > 0
    assert all(b >= a for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("fig", ["fig2", "fig3", "fig4"])
@pytest.mark.parametrize("flag", ["--seed", "--replications"])
def test_fig_commands_take_no_seed_or_replications(fig, flag, tmp_path, capsys):
    # the figures are exact computations: no draw depends on a seed
    with pytest.raises(SystemExit) as exc:
        main([fig, "--out", str(tmp_path), flag, "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_summary_csv_round_trip(tmp_path):
    from bandshare.cli import SUMMARY_HEADER, parse_summary_csv, summary_rows
    from bandshare.engine import replicate

    scen = parse_scenario(MINIMAL_FULL.replace("sim.horizon = 50",
                                               "sim.horizon = 50\nsim.replications = 5"))
    summary = replicate(scen)
    path = tmp_path / "summary.csv"
    rows = list(summary_rows(summary, "full"))
    write_csv(str(path), SUMMARY_HEADER, rows)
    assert parse_summary_csv(path.read_text()) == rows


def test_zero_replications_rejected():
    with pytest.raises(ScenarioParseError):
        parse_scenario(MINIMAL_FULL + "sim.replications = 0\n")
