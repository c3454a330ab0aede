let () = print_int Fixapi.Api.unused
