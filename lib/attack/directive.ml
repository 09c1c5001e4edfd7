(** What an adaptive strategy asks the campaign to change.

    A directive is a sparse override: [None] fields leave the current
    setting alone. Directives are {e staged} when decided and {e applied}
    only at the next step boundary, so a mid-step decision can never
    perturb the probes already scheduled for the step — the property that
    keeps adaptive trials deterministic and job-count invariant. *)

type launchpad = Within_step | Next_step

let launchpad_to_string = function Within_step -> "within-step" | Next_step -> "next-step"

type t = {
  kappa : float option;  (** new indirect split of the omega budget, in [0,1] *)
  exclude : Fortress_model.Node_id.t list option;
      (** nodes to steer probes away from; [Some []] clears all exclusions *)
  pacing : Pacing.t option;
  launchpad : launchpad option;
}

let unchanged = { kappa = None; exclude = None; pacing = None; launchpad = None }
let is_unchanged d = d = unchanged

let make ?kappa ?exclude ?pacing ?launchpad () = { kappa; exclude; pacing; launchpad }

(* Two directives staged in one step: the later one wins field-wise. *)
let merge earlier later =
  let pick a b = match a with Some _ -> a | None -> b in
  {
    kappa = pick later.kappa earlier.kappa;
    exclude = pick later.exclude earlier.exclude;
    pacing = pick later.pacing earlier.pacing;
    launchpad = pick later.launchpad earlier.launchpad;
  }

let to_string d =
  if is_unchanged d then "unchanged"
  else
    String.concat ", "
      (List.concat
         [
           (match d.kappa with Some k -> [ Printf.sprintf "kappa=%g" k ] | None -> []);
           (match d.exclude with
           | Some [] -> [ "exclude=none" ]
           | Some nodes ->
               [
                 "exclude="
                 ^ String.concat "+" (List.map Fortress_model.Node_id.to_string nodes);
               ]
           | None -> []);
           (match d.pacing with Some p -> [ "pacing=" ^ Pacing.to_string p ] | None -> []);
           (match d.launchpad with
           | Some l -> [ "launchpad=" ^ launchpad_to_string l ]
           | None -> []);
         ])
