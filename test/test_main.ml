let () =
  Alcotest.run "inltune"
    [
      ("support", Test_support.suite);
      ("obs", Test_obs.suite);
      ("prof", Test_prof.suite);
      ("jir", Test_jir.suite);
      ("opt", Test_opt.suite);
      ("plan", Test_plan.suite);
      ("vm", Test_vm.suite);
      ("flat", Test_flat.suite);
      ("codecache", Test_codecache.suite);
      ("lower", Test_lower.suite);
      ("equiv", Test_equiv.suite);
      ("facts", Test_facts.suite);
      ("runner", Test_runner.suite);
      ("workloads", Test_workloads.suite);
      ("shapes", Test_shapes.suite);
      ("ga", Test_ga.suite);
      ("resilience", Test_resilience.suite);
      ("core", Test_core.suite);
      ("policy", Test_policy.suite);
      ("gp", Test_gp.suite);
      ("serve", Test_serve.suite);
      ("extensions", Test_extensions.suite);
      ("properties", Test_properties.suite);
    ]
