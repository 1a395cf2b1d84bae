let () =
  Alcotest.run "xaos"
    [
      ("sax", Test_sax.suite);
      ("symbol", Test_symbol.suite);
      ("dom", Test_dom.suite);
      ("serialize", Test_serialize.suite);
      ("xpath", Test_xpath.suite);
      ("xtree-xdag", Test_xtree.suite);
      ("dnf", Test_dnf.suite);
      ("matching", Test_matching.suite);
      ("engine", Test_engine.suite);
      ("attributes", Test_attributes.suite);
      ("text", Test_text.suite);
      ("query", Test_query.suite);
      ("query-set", Test_query_set.suite);
      ("trace", Test_trace.suite);
      ("baseline", Test_baseline.suite);
      ("yfilter", Test_yfilter.suite);
      ("gate", Test_prefix_gate.suite);
      ("semantics", Test_semantics.suite);
      ("workloads", Test_workloads.suite);
      ("deepgen", Test_deepgen.suite);
      ("misc", Test_misc.suite);
      ("stats", Test_stats.suite);
      ("obs", Test_obs.suite);
      ("histogram", Test_histogram.suite);
      ("tracer", Test_tracer.suite);
      ("properties", Test_properties.suite);
      ("hardening", Test_hardening.suite);
      ("fuzz", Test_fuzz.suite);
      ("chaos", Test_chaos.suite);
      ("service", Test_service.suite);
      ("attrib", Test_attrib.suite);
    ]
