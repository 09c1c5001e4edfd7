(* Pins on committed outputs, the oracle every refactor is checked
   against. The full-length runs live in test/golden/ and are diffed by
   CI; these are their second-scale counterparts, so `dune runtest` alone
   catches a moved trace digest. Regenerate with test/golden/regenerate.sh
   when a change moves an output on purpose, and say why in CHANGES.md. *)

module Artefact = Fortress_exp.Artefact
module Report = Fortress_exp.Report
module Inject = Fortress_exp.Inject
module Plan = Fortress_faults.Plan
module Strategy = Fortress_attack.Adaptive.Strategy

let golden_report = lazy (In_channel.with_open_text "golden/report-full.md" In_channel.input_all)

let rec index_from text i sub =
  if i + String.length sub > String.length text then None
  else if String.sub text i (String.length sub) = sub then Some i
  else index_from text (i + 1) sub

(* the committed report's block for [title]: from its heading line up to
   the next heading, or to the end of the file *)
let golden_block title =
  let text = Lazy.force golden_report in
  match index_from text 0 ("\n## " ^ title ^ "\n") with
  | None -> Alcotest.failf "no block %S in golden/report-full.md" title
  | Some i ->
      let stop =
        match index_from text (i + 1) "\n## " with
        | Some j -> j + 1
        | None -> String.length text
      in
      String.sub text (i + 1) (stop - i - 1)

(* an analytic artefact, or A2, renders to exactly its committed block *)
let test_artefact_block (a : Artefact.t) () =
  Alcotest.(check string) (a.id ^ " block") (golden_block a.title) (Report.section a)

(* [inject --plan chaos --seed 42 --trials 1 ...]: the none and chaos
   digests of each of the four golden inject runs *)
let test_inject_digests ?strategy ~stack expected () =
  let strategy = Option.map (fun name -> Option.get (Strategy.find name)) strategy in
  let config = { Inject.default_config with trials = 1; seed = 42 } in
  let report = Inject.run ?strategy ~stack ~config ~plans:[ Plan.chaos ] () in
  Alcotest.(check (list string))
    "none, chaos digests" expected
    (List.map (fun (r : Inject.run) -> r.Inject.digest) (report.Inject.baseline :: report.Inject.runs))

let () =
  Alcotest.run "fortress_golden"
    [
      ( "report blocks",
        List.filter_map
          (fun (a : Artefact.t) ->
            if a.quick || a.id = "a2" then
              Some (Alcotest.test_case a.id `Quick (test_artefact_block a))
            else None)
          Artefact.all );
      ( "inject digests",
        [
          Alcotest.test_case "fortress" `Quick
            (test_inject_digests ~stack:`Fortress [ "51cd98708785b8bb"; "67b9dbe4dae51cb5" ]);
          Alcotest.test_case "smr" `Quick
            (test_inject_digests ~stack:`Smr [ "0259b0e2f7fc112e"; "d2276a71e1b499cf" ]);
          Alcotest.test_case "fortress, stale-key-rush" `Quick
            (test_inject_digests ~strategy:"stale-key-rush" ~stack:`Fortress
               [ "a5166031f97c1203"; "1041bef192ffb0b8" ]);
          Alcotest.test_case "smr, partition-follower" `Quick
            (test_inject_digests ~strategy:"partition-follower" ~stack:`Smr
               [ "662f999b4dcd7e87"; "b11816a07bf401a4" ]);
        ] );
    ]
