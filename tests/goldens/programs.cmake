# What the goldens pin, one call per program; included by CMakeLists.txt
# (one ctest case each) and by regen.cmake. <dir> is where the build puts
# the binary.
#   nistream_golden(<dir> <program> STDOUT)  stdout vs <program>.txt here
#   nistream_golden(<dir> <program> JSON <expected> [args...])  the JSON
#       written by `--jobs=4 --out` vs <expected> (under the source root),
#       both without their "jobs" and "git_rev" lines
# Each runs with NISTREAM_CSV_DIR=.; every plot series written (Figures
# 6-10) is pinned by its line in figures.sha256.
# Not pinned: scale_sweep's timing grid and native_dwcs_bench print host
# time; nibench/ is pinned by CI's fingerprint job.

# Paper Tables 1-5, Figures 6-10 and the headline overhead.
nistream_golden(bench table1_microbench STDOUT)
nistream_golden(bench table2_microbench STDOUT)
nistream_golden(bench table3_hwqueue STDOUT)
nistream_golden(bench table4_critical_path STDOUT)
nistream_golden(bench table5_pci STDOUT)
nistream_golden(bench fig6_cpu_util STDOUT)
nistream_golden(bench fig7_host_bandwidth STDOUT)
nistream_golden(bench fig8_host_qdelay STDOUT)
nistream_golden(bench fig9_ni_bandwidth STDOUT)
nistream_golden(bench fig10_ni_qdelay STDOUT)
nistream_golden(bench headline_overhead STDOUT)

# Ablations (ablate_policy is a tracked sweep, below).
nistream_golden(bench ablate_anchor STDOUT)
nistream_golden(bench ablate_arith STDOUT)
nistream_golden(bench ablate_cluster STDOUT)
nistream_golden(bench ablate_dispatch STDOUT)
nistream_golden(bench ablate_fpga STDOUT)
nistream_golden(bench ablate_paths STDOUT)
nistream_golden(bench ablate_repr STDOUT)
nistream_golden(bench ablate_reservation STDOUT)
nistream_golden(bench ablate_scaling STDOUT)
nistream_golden(bench ablate_striping STDOUT)

# Examples.
nistream_golden(examples quickstart STDOUT)
nistream_golden(examples video_server STDOUT)
nistream_golden(examples overload_shedding STDOUT)
nistream_golden(examples cluster_dvcm STDOUT)
nistream_golden(examples cluster_scaleout STDOUT)
nistream_golden(examples reliable_streaming STDOUT)
nistream_golden(examples host_vs_ni STDOUT)

# The tracked sweeps, against the tracked files themselves.
nistream_golden(bench chaos_sweep JSON BENCH_chaos.json)
nistream_golden(bench cluster_chaos_sweep JSON BENCH_cluster.json)
nistream_golden(bench ingress_chaos_sweep JSON BENCH_ingress.json)
nistream_golden(bench session_churn_sweep JSON BENCH_session.json)
nistream_golden(bench ablate_policy JSON BENCH_policy.json)

# The decision-identity contract at 1,000 streams (its timing grid is not
# pinned).
nistream_golden(bench scale_sweep JSON tests/goldens/scale_sweep_identity.json
                --identity --streams=1000 --shards=1,4)
