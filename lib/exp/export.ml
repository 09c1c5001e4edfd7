module Table = Fortress_util.Table

let gnuplot_figure1 =
  {|# Figure 1: expected lifetime comparison (log-log)
set datafile separator ","
set terminal png size 900,600
set output "figure1.png"
set logscale xy
set xlabel "alpha"
set ylabel "expected lifetime (unit time-steps)"
set key outside
plot "figure1.csv" using 1:2 with linespoints title "S0SO", \
     "figure1.csv" using 1:3 with linespoints title "S1SO", \
     "figure1.csv" using 1:4 with linespoints title "S1PO", \
     "figure1.csv" using 1:5 with linespoints title "S2PO (k=0.5)", \
     "figure1.csv" using 1:6 with linespoints title "S0PO"
|}

let gnuplot_figure2 =
  {|# Figure 2: S2PO expected lifetime as kappa varies (log-log)
set datafile separator ","
set terminal png size 900,600
set output "figure2.png"
set logscale xy
set xlabel "alpha"
set ylabel "S2PO expected lifetime (unit time-steps)"
set key outside
plot for [col=2:8] "figure2.csv" using 1:col with linespoints title columnheader(col)
|}

(* each CSV is the table of one Artefact entry *)
let csvs =
  [
    ("figure1.csv", "figure1");
    ("figure2.csv", "figure2");
    ("ordering.csv", "ordering");
    ("ablation_np.csv", "a1");
    ("ablation_launchpad.csv", "a3");
    ("podc_claim.csv", "podc");
    ("sensitivity.csv", "sensitivity");
  ]

let artefacts () =
  List.map (fun (file, id) -> (file, Table.to_csv (Artefact.table id))) csvs
  @ [ ("figure1.gp", gnuplot_figure1); ("figure2.gp", gnuplot_figure2) ]

(* [Sys.mkdir] fails with ENOENT when the parent is missing: create the
   whole chain, tolerating components that already exist (or races that
   create them first). *)
let rec ensure_dir dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then ensure_dir parent;
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.is_directory dir -> ()
  end
  else if not (Sys.is_directory dir) then
    raise (Sys_error (dir ^ ": not a directory"))

let write_all ~dir =
  ensure_dir dir;
  List.map
    (fun (name, contents) ->
      let path = Filename.concat dir name in
      let oc = open_out path in
      output_string oc contents;
      close_out oc;
      (path, String.length contents))
    (artefacts ())
