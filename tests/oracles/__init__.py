"""Reference implementations the tests pin the library's fast paths to.

Each oracle is a slow, simple implementation of one fast path in
``src/repro``.  The library never imports them; tests and the
microbenchmarks compare the two bit for bit (or in distribution, where
noted).  polaris-lint PL002 checks that every registered pair keeps both
sides and that a test module outside this package names both.

Oracle -> fast path [PL002 pair]:

* ``simulation.LoopSimulator`` -> ``repro.simulation.LogicSimulator``
  [``sim-backend``].  One gate per Python iteration; every net of every
  design is bitwise equal to the fused levelised plan.
* ``simulation.LoopTraceGenerator`` -> ``repro.power.PowerTraceGenerator``
  (packed toggle extraction) [``sim-backend``].  The trace engine on
  ``LoopSimulator``, with toggles and masked data codes taken from a bool
  net matrix and copied out in the engine's gate blocks
  (``_fill_blocks``); traces and t-values are bitwise those of the packed
  engine.
* ``power.generate_loop`` -> ``PowerTraceGenerator.generate``
  [``trace-engine``].  Each gate's power evaluated on its own
  (``unmasked_power``, ``masked_power``), masks and noise drawn from a
  sequential generator; exact on unmasked designs without noise, equal
  in distribution on masked ones.
* ``power.generate_loop`` -> ``repro.tvla.assessment._fold_chunk``
  [``chunk-fold``].  The TVLA chunk fold fills and folds each gate block
  of ``PowerTraceGenerator._fill_blocks`` without the chunk matrix; it is
  bitwise ``update_batch`` on ``generate``'s matrix, and close to the
  loop's traces folded the same way where the loop is exact.
* ``ctrsample.philox_blocks_reference`` ->
  ``repro.power.ctrsample.philox_raw`` [``ctr-philox``].  The 10-round
  Philox-4x64 network in pure numpy; bitwise equal to the native
  generator.
* ``tree.best_split_loop`` -> ``repro.ml.tree._TreeBuilder._best_split``
  [``tree-split``].  Argsort and scan one feature at a time; patched in as
  ``_TreeBuilder._best_split``, it grows bitwise equal trees.
* ``tree.predict_value`` -> ``_FittedTree.predict_batch``
  [``tree-predict``].  Walks the ``FlatTree`` node arrays one row at a
  time; ``tree.decision_path`` lists the nodes one row visits, the oracle
  of ``_FittedTree.leaf_indices`` [no pair].
* ``tree_shap.explain_per_sample`` -> ``repro.xai.tree_shap._LeafTable
  .shap_block`` behind ``TreeShapExplainer.explain_matrix``
  [``tree-shap-explain``].  Exact coalition enumeration per tree, each
  coalition a recursive walk of the tree for one sample; every row of the
  leaf-path engine equals it to round-off (1e-10).
  ``tree_shap.base_value`` rebuilds the explainer's base value the same
  way.
* ``forest.fit_forest_per_tree`` -> ``repro.ml.tree._fit_lockstep``
  [``forest-lockstep``].  Fits each random-forest tree alone on its
  bootstrap with ``best_split_loop``; bitwise equal to the lockstep
  forest.
* ``assessment.accumulate_campaign_slice`` ->
  ``repro.tvla.assessment.fold_trace_range`` [no pair].  One running
  accumulator per group; t-values bitwise equal to the per-chunk folds
  that ``merge_shard_partials`` left-folds.
* ``kernel_shap.KernelShapExplainer`` -> ``repro.xai.TreeShapExplainer``
  [no pair].  Weighted regression over feature coalitions; agrees with
  Tree SHAP on a single tree.
"""
