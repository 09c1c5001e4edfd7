type fidelity = Quick | Full

let section (a : Artefact.t) =
  Printf.sprintf "## %s\n\n```\n%s```\n\n" a.title (Artefact.text (a.render ()))

let generate ?(fidelity = Quick) () =
  "# FORTRESS reproduction report\n\n\
   Auto-generated by `fortress-cli report`. Parameters follow the paper:\n\
   chi = 2^16, alpha in [1e-5, 1e-2], S0 = 4-replica SMR, S1 = 3-replica\n\
   primary-backup, S2 = FORTRESS (np = ns = 3).\n\n"
  ^ String.concat ""
      (List.filter_map
         (fun (a : Artefact.t) -> if a.quick || fidelity = Full then Some (section a) else None)
         Artefact.all)
