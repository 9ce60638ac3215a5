"""Tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main
from repro.sim.checkpoint import CHECKPOINT_FORMAT


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_app_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "nginx"])

    def test_unknown_platform_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "testpmd",
                                       "--platform", "firesim"])

    def test_defaults(self):
        args = build_parser().parse_args(["run", "testpmd"])
        assert args.size == 256
        assert args.gbps == 10.0
        assert args.platform == "gem5"

    def test_bad_repro_jobs_leaves_other_commands_alone(self, monkeypatch):
        """REPRO_JOBS is parsed as the default of --jobs, not while the
        parser is built."""
        monkeypatch.setenv("REPRO_JOBS", "abc")
        assert main(["apps"]) == 0

    def test_repro_jobs_zero_is_a_usage_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "0")
        with pytest.raises(SystemExit) as exited:
            main(["sweep", "testpmd", "--rates", "2", "--packets", "300"])
        assert exited.value.code == 2


class TestCommands:
    def test_apps_lists_registry(self, capsys):
        assert main(["apps"]) == 0
        out = capsys.readouterr().out
        for app in ("testpmd", "touchfwd", "iperf", "memcached_dpdk"):
            assert app in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "gem5" in out and "altra" in out
        assert "3GHz" in out

    def test_closed_stdout_exits_quietly(self):
        """A reader that closes the pipe before the command writes
        (``| head`` exiting early) gets exit status 1, no traceback."""
        src_root = Path(repro.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(src_root))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "repro", "table1"],
                                  stdout=write_end, stderr=subprocess.PIPE,
                                  env=env, timeout=60)
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert b"Traceback" not in proc.stderr, proc.stderr.decode()

    def test_run(self, capsys):
        assert main(["run", "testpmd", "--size", "256", "--gbps", "2",
                     "--packets", "300"]) == 0
        out = capsys.readouterr().out
        assert "drop rate" in out
        assert "mean RTT us" in out

    def test_run_rxptx_with_proc_time(self, capsys):
        assert main(["run", "rxptx", "--proc-time-ns", "100",
                     "--gbps", "2", "--packets", "300"]) == 0
        assert "service Gbps" in capsys.readouterr().out

    def test_sweep(self, capsys):
        assert main(["sweep", "testpmd", "--size", "256",
                     "--rates", "2,4", "--packets", "300"]) == 0
        out = capsys.readouterr().out
        assert "2.00" in out and "4.00" in out

    def test_memcached(self, capsys):
        assert main(["memcached", "--rps", "100000",
                     "--requests", "300"]) == 0
        out = capsys.readouterr().out
        assert "MemcachedDPDK" in out
        assert "GET hits/misses" in out

    def test_msb(self, capsys):
        assert main(["msb", "iperf", "--size", "1518",
                     "--max-gbps", "16"]) == 0
        out = capsys.readouterr().out
        assert "MSB" in out

    def test_graph_emits_dot(self, capsys):
        assert main(["graph", "testpmd", "--loadgen"]) == 0
        out = capsys.readouterr().out
        assert out.startswith('digraph "gem5"')
        assert '"loadgen"' in out and '"nic0"' in out

    def test_graph_writes_file(self, capsys, tmp_path):
        target = tmp_path / "wiring.dot"
        assert main(["graph", "iperf", "-o", str(target)]) == 0
        assert target.read_text().startswith("digraph")
        assert str(target) in capsys.readouterr().out


class TestCheckpointCommands:
    def test_save_info_restore_round_trip(self, capsys, tmp_path):
        path = tmp_path / "warm.ckpt"
        assert main(["checkpoint", "save", "testpmd", "--size", "256",
                     "-o", str(path)]) == 0
        assert path.exists()
        out = capsys.readouterr().out
        assert "checkpoint written" in out

        assert main(["checkpoint", "info", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"format:  {CHECKPOINT_FORMAT}" in out
        assert "meta.app_name: testpmd" in out

        assert main(["checkpoint", "restore", str(path)]) == 0
        out = capsys.readouterr().out
        assert "round-trip digest matches" in out

    def test_save_restore_memcached(self, capsys, tmp_path):
        path = tmp_path / "mc.ckpt"
        assert main(["checkpoint", "save", "memcached_dpdk",
                     "-o", str(path)]) == 0
        assert main(["checkpoint", "restore", str(path)]) == 0
        assert "round-trip digest matches" in capsys.readouterr().out

    def test_info_rejects_corrupt_file(self, capsys, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_text("{not json")
        assert main(["checkpoint", "info", str(path)]) == 1
        assert "invalid checkpoint" in capsys.readouterr().err

    def test_restore_rejects_tampered_file(self, capsys, tmp_path):
        path = tmp_path / "warm.ckpt"
        assert main(["checkpoint", "save", "testpmd",
                     "-o", str(path)]) == 0
        capsys.readouterr()
        path.write_text(path.read_text().replace('"seed":0', '"seed":1'))
        assert main(["checkpoint", "restore", str(path)]) == 1
        assert "invalid checkpoint" in capsys.readouterr().err

    def test_warmup_cache_flag_populates_cache(self, capsys, tmp_path,
                                               monkeypatch):
        monkeypatch.delenv("REPRO_WARMUP_CACHE", raising=False)
        assert main(["run", "testpmd", "--size", "256", "--gbps", "2",
                     "--packets", "300",
                     "--warmup-cache", str(tmp_path)]) == 0
        assert list(tmp_path.glob("warmup-*.json")), \
            "--warmup-cache did not populate the cache"

    def test_warmup_cache_env_default_populates_cache(self, capsys,
                                                      tmp_path,
                                                      monkeypatch):
        """The CLI is the one reader of REPRO_WARMUP_CACHE: the default
        of --warmup-cache."""
        monkeypatch.setenv("REPRO_WARMUP_CACHE", str(tmp_path))
        assert main(["run", "testpmd", "--size", "256", "--gbps", "2",
                     "--packets", "300"]) == 0
        assert list(tmp_path.glob("warmup-*.json")), \
            "REPRO_WARMUP_CACHE did not populate the cache"

    def test_profile_prints_hotspots(self, capsys):
        assert main(["profile", "gem5", "--packets", "200",
                     "--top", "10"]) == 0
        out = capsys.readouterr().out
        assert "testpmd 256B @ 25 Gbps" in out
        # pstats report header plus at least one simulator frame.
        assert "cumulative" in out
        assert "event_queue" in out or "run_fixed_load" in out

    def test_profile_dumps_raw_stats(self, capsys, tmp_path):
        import pstats

        path = tmp_path / "run.pstats"
        assert main(["profile", "gem5", "--app", "touchdrop",
                     "--packets", "150", "--sort", "tottime",
                     "-o", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"raw profile written to {path}" in out
        # The dump is loadable pstats data.
        pstats.Stats(str(path))

    def test_profile_rejects_unknown_preset(self):
        with pytest.raises(SystemExit):
            main(["profile", "firesim"])

    def test_profile_run_that_raises_leaves_no_profiler(self, monkeypatch):
        """A failed run must not leave cProfile installed: the rest of
        the process would be profiled, and the next ``profile`` call
        could not install its own profiler."""
        import cProfile
        import sys

        from repro.harness import runner

        made = []
        real_profile = cProfile.Profile

        class RecordedProfile(real_profile):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        def failing_run(*args, **kwargs):
            raise RuntimeError("run failed")

        monkeypatch.setattr(cProfile, "Profile", RecordedProfile)
        monkeypatch.setattr(runner, "run_fixed_load", failing_run)
        try:
            with pytest.raises(RuntimeError, match="run failed"):
                main(["profile", "gem5", "--packets", "50"])
            left_installed = sys.getprofile()
            fresh = real_profile()
            fresh.enable()
            fresh.disable()
        finally:
            for profiler in made:
                profiler.disable()
        assert made, "the profile command made no profiler"
        assert left_installed is None


class TestBadInput:
    """Malformed arguments are usage errors (exit 2), not tracebacks."""

    @pytest.mark.parametrize("argv", [
        ["sweep", "testpmd", "--rates", "5,,10"],
        ["fabric", "sweep", "leaf-spine", "--loads", "0.2,x"],
    ])
    def test_bad_number_list_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "comma-separated numbers" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["run", "testpmd", "--gbps", "0"],
        ["run", "testpmd", "--size", "10"],
        ["run", "testpmd", "--size", "1519"],
        ["msb", "testpmd", "--max-gbps", "-1"],
        ["sweep", "testpmd", "--rates", "-5"],
        ["sweep", "testpmd", "--rates", "5,0"],
        ["profile", "gem5", "--gbps", "nan"],
        ["checkpoint", "save", "testpmd", "--size", "63", "-o", "x.ckpt"],
        ["memcached", "--rps", "0"],
        ["fabric", "run", "leaf-spine", "--load", "0"],
        ["fabric", "sweep", "leaf-spine", "--loads", "0.2,-0.4"],
        ["memcached", "--requests", "0"],
        ["run", "rxptx", "--proc-time-ns", "-100"],
        ["sweep", "rxptx", "--proc-time-ns", "nan"],
        ["run", "testpmd", "--packets", "0"],
        ["profile", "gem5", "--packets", "-5"],
    ])
    def test_out_of_range_number_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "must" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["run", "memcached_dpdk", "--gbps", "5"],
        ["msb", "memcached_dpdk", "--max-gbps", "5"],
        ["sweep", "memcached_kernel", "--rates", "5"],
        ["profile", "gem5", "--app", "memcached_kernel"],
    ])
    def test_memcached_app_at_a_frame_rate_is_a_usage_error(self, argv,
                                                            capsys):
        """The memcached apps serve only memcached requests, through the
        ``memcached`` command; a synthetic frame rate would report a
        number for a run that served nothing."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_msb_of_touchdrop_is_a_usage_error(self, capsys):
        """TouchDrop drops every frame, so it has no MSB to search for."""
        with pytest.raises(SystemExit) as exc:
            main(["msb", "touchdrop"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_proc_time_for_an_app_without_one_is_a_usage_error(self,
                                                              capsys):
        """Only RXpTX has a processing interval to set."""
        for argv in (["run", "testpmd", "--proc-time-ns", "10"],
                     ["msb", "iperf", "--proc-time-ns", "0"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "rxptx" in capsys.readouterr().err

    def test_shard_count_that_does_not_divide_is_a_usage_error(self,
                                                               capsys):
        assert main(["fabric", "run", "fat-tree-k4", "--shards", "3"]) == 2
        assert "must divide" in capsys.readouterr().err
