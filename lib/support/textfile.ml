(* The one file layer.  An open error's [Sys_error] already names the path
   ("p: No such file or directory"); a read error on an open channel does
   not ("Is a directory"), so [guard] adds it. *)
let guard path f =
  try Ok (f ())
  with Sys_error m ->
    Error (if String.starts_with ~prefix:(path ^ ": ") m then m else path ^ ": " ^ m)

let read path = guard path (fun () -> In_channel.with_open_bin path In_channel.input_all)

let fold_lines path ~init f =
  guard path (fun () ->
      In_channel.with_open_bin path (fun ic ->
          let rec go acc n =
            match In_channel.input_line ic with None -> acc | Some l -> go (f acc n l) (n + 1)
          in
          go init 1))

let write path text =
  guard path (fun () -> Out_channel.with_open_bin path (fun oc -> output_string oc text))

(* Only a non-empty file is read, and only its last byte.  One whose last
   byte cannot be read (a pipe, a terminal) has no torn line to end. *)
let ends_mid_line path oc =
  try
    let size = Out_channel.length oc in
    size > 0L
    && In_channel.with_open_bin path (fun ic ->
           In_channel.seek ic (Int64.pred size);
           In_channel.input_char ic <> Some '\n')
  with Sys_error _ -> false

let open_append path =
  guard path (fun () ->
      let oc = open_out_gen [ Open_wronly; Open_append; Open_creat; Open_binary ] 0o644 path in
      if ends_mid_line path oc then output_char oc '\n';
      oc)
